package rdf

import (
	"math/bits"
	"slices"
	"sort"
)

// Build fills an empty graph with a batch of interned (non-zero) IDs,
// publishes the result once and leaves the graph read-only, like a
// Snapshot: the bulk alternative to a Tx adding them one by one, for a
// graph that is written once and then only read (a gather's scratch
// graph). ts may hold duplicates; Build sorts and compacts it in place,
// so its contents are unspecified afterwards. An empty batch publishes
// nothing and leaves the graph as it was.
//
// A built graph holds no trie: each permutation is one exactly-sized
// run of its triples rotated to lead with its key — SPO as (s, p, o),
// POS as (p, o, s), OSP as (o, s, p) — sorted in trie order (sortTrie).
// A pattern is a prefix search on one run, and a built graph enumerates
// every pattern in the order a Tx-built graph of the same triples does.
func (g *Graph) Build(ts []Triple) {
	g.checkWritable()
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if g.cur().size != 0 {
		panic("rdf: Build into a non-empty graph")
	}
	if len(ts) == 0 {
		return
	}
	// The three runs are consecutive in one array, the one Reset kept when
	// it fits. Its last third is the sort buffer until OSP is copied in.
	m, r := len(ts), g.spare
	if r == nil || cap(r.rows) < 3*m {
		r = &runs{rows: make([]Triple, 3*m)}
	}
	tmp := r.rows[2*m : 3*m]
	sortTrie(ts, tmp)
	ts = slices.Compact(ts)
	n := len(ts)
	g.spare, r.rows, r.preds = nil, r.rows[:3*n], r.preds[:0]
	r.spo, r.pos, r.osp = r.rows[:n:n], r.rows[n:2*n:2*n], r.rows[2*n:]
	copy(r.spo, ts)
	rotate(ts, tmp)
	copy(r.pos, ts)
	rotate(ts, tmp)
	copy(r.osp, ts)
	for i, t := range r.pos {
		if i == 0 || t.S != r.pos[i-1].S {
			r.preds = append(r.preds, predSubjects{p: t.S})
		}
	}
	for i, t := range r.spo {
		if i == 0 || t.S != r.spo[i-1].S || t.P != r.spo[i-1].P {
			r.pred(t.P).subjects++
		}
	}
	g.publish(&graphState{size: n, built: r})
}

// maxScratch bounds, in rows or terms, what Reset keeps for the next
// Build; the shard and protocol packages' pools share the bound.
const maxScratch = 1 << 16

// Reset empties a graph Build filled, or one still empty, for the next
// Build: the identity maps are cleared in place, the term and run arrays
// keep their capacity, the numeric memo goes, IDs restart at 1 and the
// generation moves on. The caller must hold the only reference to the
// graph. A live graph with triples, and a Snapshot, panic.
func (g *Graph) Reset() {
	if st := g.cur(); g.frozen || st.built == nil && st.size != 0 {
		panic("rdf: Reset of a live graph or a snapshot")
	}
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if r := g.cur().built; r != nil && cap(r.rows) <= 3*maxScratch {
		g.spare = r
	}
	g.dict.reset()
	g.publish(&graphState{})
}

// rotate turns every triple one place (turn) and re-sorts the batch in
// trie order.
func rotate(ts, tmp []Triple) {
	for i, t := range ts {
		ts[i] = turn(t, 1)
	}
	sortTrie(ts, tmp)
}

// turn moves t's components k places left: one place turns (a, b, c)
// into (b, c, a).
func turn(t Triple, k int) Triple {
	for range k {
		t = Triple{t.P, t.O, t.S}
	}
	return t
}

// pmLevels is how many chunks a key has: ceil(32 / pmBits).
const pmLevels = pmMaxDepth - 1

// sortTrie sorts ts by (S, P, O), each ID in trie order — by its lowest
// 5-bit chunk first, then the next, each chunk ascending, the order in
// which a trie lays its keys out. It is an LSD radix sort with one
// 32-way pass per chunk, O's top chunk first and S's lowest last,
// through tmp (len(ts) triples); a pass whose chunk is the same in
// every triple is skipped, so small IDs cost few passes.
func sortTrie(ts, tmp []Triple) {
	if len(ts) < 2 {
		return
	}
	var counts [3 * pmLevels][1 << pmBits]int
	for _, t := range ts {
		for l := range pmLevels {
			shift := uint(l * pmBits)
			counts[l][t.O>>shift&pmMask]++
			counts[pmLevels+l][t.P>>shift&pmMask]++
			counts[2*pmLevels+l][t.S>>shift&pmMask]++
		}
	}
	src, dst := ts, tmp[:len(ts)]
	for f := range 3 {
		for l := pmLevels - 1; l >= 0; l-- {
			c, shift := &counts[f*pmLevels+l], uint(l*pmBits)
			if c[field(src[0], f)>>shift&pmMask] == len(src) {
				continue
			}
			var next [1 << pmBits]int
			for k, sum := 0, 0; k < len(next); k++ {
				next[k], sum = sum, sum+c[k]
			}
			for _, t := range src {
				k := field(t, f) >> shift & pmMask
				dst[next[k]] = t
				next[k]++
			}
			src, dst = dst, src
		}
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
}

// field is a triple's component sortTrie's pass f keys on: O, P, S.
func field(t Triple, f int) ID {
	switch f {
	case 0:
		return t.O
	case 1:
		return t.P
	}
	return t.S
}

// trieLess reports whether a sorts before b in trie order (sortTrie):
// by the lowest 5-bit chunk in which they differ. Below that chunk they
// agree, so masking both to its end leaves the chunk to decide; equal
// IDs mask to all bits (a shift past 31 is 0) and are not less.
func trieLess(a, b ID) bool {
	end := uint(bits.TrailingZeros32(uint32(a^b))) / pmBits * pmBits
	m := ID(1)<<(end+pmBits) - 1
	return a&m < b&m
}

// before reports whether a's first n (at least one) components sort
// before b's in trie order.
func before(a, b Triple, n int) bool {
	x, y := a.S, b.S
	if x == y && n > 1 {
		if x, y = a.P, b.P; x == y && n > 2 {
			x, y = a.O, b.O
		}
	}
	return trieLess(x, y)
}

// search returns the index of the first row of run that does not sort
// before key on the first n components or, with past, of the first row
// key sorts before.
func search(run []Triple, key Triple, n int, past bool) int {
	lo, hi := 0, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		a, b := run[m], key
		if past {
			a, b = b, a
		}
		if before(a, b, n) != past {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// runs is a built graph's read-only layout (Build): the three
// permutations as sorted runs in one array, and POS's distinct
// predicates in its order, each with its number of distinct subjects.
type runs struct {
	rows, spo, pos, osp []Triple
	preds               []predSubjects
}

type predSubjects struct {
	p        ID
	subjects int32
}

// pred returns p's entry in preds, nil when p occurs in no triple.
func (r *runs) pred(p ID) *predSubjects {
	i := sort.Search(len(r.preds), func(i int) bool { return !trieLess(r.preds[i].p, p) })
	if i == len(r.preds) || r.preds[i].p != p {
		return nil
	}
	return &r.preds[i]
}

// has reports whether t is one of the rows: a probe takes one search.
func (r *runs) has(t Triple) bool {
	i := search(r.spo, t, 3, false)
	return i < len(r.spo) && r.spo[i] == t
}

// span returns the rows matching a pattern (0 = wildcard) from the run
// its bound positions lead, and k, how many places that run's rows are
// turned from (s, p, o).
func (r *runs) span(s, p, o ID) (rows []Triple, k int) {
	n := 0
	for _, id := range [3]ID{s, p, o} {
		if id != 0 {
			n++
		}
	}
	switch {
	case n == 0:
		return r.spo, 0
	case s == 0 && p != 0:
		k = 1
	case p == 0 && o != 0:
		k = 2
	}
	run, key := [3][]Triple{r.spo, r.pos, r.osp}[k], turn(Triple{s, p, o}, k)
	// The key's rows end inside a window from the first, widened until
	// the row at its end sorts after the key: a probe's few rows cost a
	// few steps, not a second search of the whole run.
	lo, w := search(run, key, n, false), 4
	for lo+w < len(run) && !before(key, run[lo+w], n) {
		w *= 4
	}
	return run[lo : lo+search(run[lo:min(lo+w, len(run))], key, n, true)], k
}
