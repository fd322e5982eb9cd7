package rdf

import (
	"context"
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
