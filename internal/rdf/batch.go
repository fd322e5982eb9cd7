package rdf

import (
	"context"
	"slices"
	"sync"
)

// TripleBatch is a column-layout (struct-of-arrays) triple buffer: the
// unit of the vectorized read path. The three slices are parallel —
// row i is the triple (S[i], P[i], O[i]). Batches are filled by
// MatchIDs and MatchAppend and consumed by the engine's batch
// operators, which process whole columns of integer IDs without
// materializing interface-typed terms.
type TripleBatch struct {
	S, P, O []ID
}

// Len returns the number of rows in the batch.
func (b *TripleBatch) Len() int { return len(b.S) }

// Reset empties the batch, keeping capacity.
func (b *TripleBatch) Reset() {
	b.S = b.S[:0]
	b.P = b.P[:0]
	b.O = b.O[:0]
}

func (b *TripleBatch) append(s, p, o ID) {
	b.S = append(b.S, s)
	b.P = append(b.P, p)
	b.O = append(b.O, o)
}

// DefaultBatchSize is the row count of one vectorized batch when the
// caller does not choose one: large enough to amortize per-batch call
// overhead, small enough to stay cache-resident (3 columns × 1024 × 4
// bytes = 12 KiB).
const DefaultBatchSize = 1024

// poolCapLimit keeps pathologically grown buffers out of the pools.
const poolCapLimit = 1 << 16

var tripleBatchPool = sync.Pool{New: func() any { return new(TripleBatch) }}

func getTripleBatch(bs int) *TripleBatch {
	b := tripleBatchPool.Get().(*TripleBatch)
	if cap(b.S) < bs {
		b.S = make([]ID, 0, bs)
		b.P = make([]ID, 0, bs)
		b.O = make([]ID, 0, bs)
	}
	b.Reset()
	return b
}

func putTripleBatch(b *TripleBatch) {
	if cap(b.S) <= poolCapLimit {
		tripleBatchPool.Put(b)
	}
}

// MatchIDs enumerates triples matching a pattern (0 = wildcard) as ID
// columns in batches of up to bs rows (bs <= 0 uses DefaultBatchSize).
// It is the columnar counterpart of MatchCtx and shares its contract:
// the enumeration runs lock-free against the state current at the
// start, the context (which may be nil) is polled at batch boundaries,
// and the callback returns false to stop early. The yielded slices
// come from pooled slabs and are valid only until the callback
// returns.
func (g *Graph) MatchIDs(ctx context.Context, s, p, o ID, bs int, yield func(s, p, o []ID) bool) {
	if bs <= 0 {
		bs = DefaultBatchSize
	}
	buf := getTripleBatch(bs)
	defer putTripleBatch(buf)
	if r, ok := g.cur().bare(s, p, o); ok {
		for r.lo < r.hi {
			buf.Reset()
			r.next(buf, bs)
			if !yield(buf.S, buf.P, buf.O) || ctxDone(ctx) {
				return
			}
		}
		return
	}
	stopped := false
	g.cur().match(nil, s, p, o, func(t Triple) bool {
		buf.append(t.S, t.P, t.O)
		if buf.Len() >= bs {
			stopped = !yield(buf.S, buf.P, buf.O) || ctxDone(ctx)
			buf.Reset()
		}
		return !stopped
	})
	if !stopped && buf.Len() > 0 {
		yield(buf.S, buf.P, buf.O)
	}
}

// MatchAppend gathers every triple matching a pattern (0 = wildcard)
// into dst's columns and returns the number of rows appended. It is
// the vectorized join probe: the engine calls it once per probe-side
// row with the row's bound IDs, against a pinned snapshot, so the
// expected fan-out is the pattern's selectivity, not the graph size.
func (g *Graph) MatchAppend(s, p, o ID, dst *TripleBatch) int {
	before := dst.Len()
	if r, ok := g.cur().bare(s, p, o); ok {
		if r.lo < r.hi {
			r.next(dst, r.hi-r.lo)
		}
		return dst.Len() - before
	}
	g.cur().match(nil, s, p, o, func(t Triple) bool {
		dst.append(t.S, t.P, t.O)
		return true
	})
	return dst.Len() - before
}

// HasIDs reports whether the fully-bound ID triple is present — the
// zero-allocation membership probe of the vectorized join path.
func (g *Graph) HasIDs(s, p, o ID) bool {
	return g.cur().has(s, p, o)
}

// bare returns the base rows matching a pattern when st has no delta to
// merge with them, so a batch read decodes them straight into its
// columns; ok is false when it has one.
func (st *graphState) bare(s, p, o ID) (r baseRows, ok bool) {
	if st.adds.n+st.dels.n != 0 {
		return r, false
	}
	k, key, n := perm(s, p, o)
	return st.base.rows(k, key, n), true
}

// next moves up to max rows to dst's columns, each rebuilt as (key, a,
// b) and turned back: the key goes to column k, a and b to the two
// after it.
func (r *baseRows) next(dst *TripleBatch, max int) {
	n, at := min(r.hi-r.lo, max), len(dst.S)
	dst.S, dst.P, dst.O = slices.Grow(dst.S, n)[:at+n], slices.Grow(dst.P, n)[:at+n], slices.Grow(dst.O, n)[:at+n]
	cols := [3][]ID{dst.S[at:], dst.P[at:], dst.O[at:]}
	keys, xs, ys := cols[r.k], cols[(r.k+1)%3][:n], cols[(r.k+2)%3][:n]
	b, k, d := r.b, r.k, r.d
	rows, key, stop := &b.runs[k], ID(b.keys[k].at(d)), int(b.starts[k].at(d+1)) // key d leads rows up to stop
	for i := range keys {
		if r.lo+i == stop {
			d++
			key, stop = ID(b.keys[k].at(d)), int(b.starts[k].at(d+1))
		}
		keys[i] = key
		xs[i], ys[i] = b.ids(k, rows.at(r.lo+i))
	}
	r.lo, r.d = r.lo+n, d
}
