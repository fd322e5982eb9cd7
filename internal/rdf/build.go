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
// nothing and leaves the graph as it was. A built graph is a base with
// an empty delta, the layout a live graph's compaction produces.
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
	// The base's rows go into the array Reset kept when it fits; its last
	// third sorts the batch before the duplicates go.
	m, b := len(ts), g.spare
	if g.spare = nil; b == nil || cap(b.rows) < 3*m {
		b = &base{rows: make([]Triple, 3*m)}
	}
	ts = sortedSet(ts, b.rows[2*m:3*m])
	b.fill(ts)
	g.publish(&graphState{base: b, size: len(ts), sealed: true})
}

// maxScratch bounds, in rows or terms, what Reset keeps for the next
// Build; the shard and protocol packages' pools share the bound.
const maxScratch = 1 << 16

// Reset empties a graph Build filled, or one still empty, for the next
// Build: the identity table is cleared in place, the term array and the
// base's arrays keep their capacity, the numeric memo goes, IDs restart
// at 1 and the generation moves on. The caller must hold the only
// reference to the graph. A live graph with triples, and a Snapshot,
// panic.
func (g *Graph) Reset() {
	if st := g.cur(); g.frozen || !st.sealed && st.size != 0 {
		panic("rdf: Reset of a live graph or a snapshot")
	}
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if st := g.cur(); st.sealed && cap(st.base.rows) <= 3*maxScratch {
		g.spare = st.base
	}
	g.dict.reset()
	g.publish(&graphState{})
}

// SortSPO sorts ts into the order in which Match yields the
// all-wildcard pattern: by subject, then property, then value, each in
// the graph's trie order.
func SortSPO(ts []Triple) { sortTrie(ts, make([]Triple, len(ts)), 0) }

// sortedSet sorts ts in trie order through tmp (sortTrie) and returns
// it without its duplicates.
func sortedSet(ts, tmp []Triple) []Triple {
	sortTrie(ts, tmp, 0)
	return slices.Compact(ts)
}

// turnLast turns a batch in trie order two places (turn), so its last
// component leads, and re-sorts it: it was in order by what are now P
// and O, so only S takes passes. SPO gives OSP, and OSP gives POS.
func turnLast(ts, tmp []Triple) {
	for i, t := range ts {
		ts[i] = turn(t, 2)
	}
	sortTrie(ts, tmp, 2)
}

// turn moves t's components k places left: one place turns (a, b, c)
// into (b, c, a).
func turn(t Triple, k int) Triple {
	switch k {
	case 1:
		return Triple{t.P, t.O, t.S}
	case 2:
		return Triple{t.O, t.S, t.P}
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
// every triple is skipped, so small IDs cost few passes, and so are the
// passes of the first from fields (O, P) when ts is in order by them.
func sortTrie(ts, tmp []Triple, from int) {
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
	for f := from; f < 3; f++ {
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
// key sorts before. It gallops: the answer is sought in a window at the
// start of run, widened fourfold until the row at its end is past it,
// so an answer a few rows in costs a few steps, not a search of the
// whole run.
func search(run []Triple, key Triple, n int, past bool) int {
	lo, hi := 0, 4
	for ; hi < len(run); lo, hi = hi+1, hi*4 {
		if a, b := order(run[hi], key, past); before(a, b, n) == past {
			break
		}
	}
	for hi = min(hi, len(run)); lo < hi; {
		m := int(uint(lo+hi) >> 1)
		if a, b := order(run[m], key, past); before(a, b, n) != past {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// order puts a row and search's key in the order search compares them:
// the row lies before the answer when the first sorts before the second
// (past false), or does not (past true).
func order(row, key Triple, past bool) (Triple, Triple) {
	if past {
		return key, row
	}
	return row, key
}

// base is the immutable part of a graph's triples: the three
// permutations as runs of one array, each row turned to lead with its
// run's key — SPO as (s, p, o), POS as (p, o, s), OSP as (o, s, p) —
// and sorted in trie order, so a base enumerates every pattern in the
// order the delta's tries do. It holds no pointer the collector must
// follow past its slice headers.
type base struct {
	rows []Triple
	// lead[k][id] is one more than the row of run k where the rows led by
	// id start, 0 when there are none. It covers IDs up to the number of
	// rows (dictionary IDs are dense from 1); a key past its end is
	// searched for. The three share one array, lead[0]'s.
	lead [3][]uint32
	// preds holds, in trie order of p, each predicate's numbers of
	// distinct subjects and objects.
	preds []predStats
}

type predStats struct {
	p                 ID
	subjects, objects int32
}

// run returns permutation k's rows: 0 SPO, 1 POS, 2 OSP.
func (b *base) run(k int) []Triple {
	n := len(b.rows) / 3
	return b.rows[k*n : (k+1)*n : (k+1)*n]
}

// fill lays ts — sorted in trie order, without duplicates — out as the
// base, in the rows array it has (of capacity 3·len(ts) or more), and
// indexes it. ts is its scratch: its contents are unspecified afterwards.
func (b *base) fill(ts []Triple) {
	n := len(ts)
	b.rows = b.rows[:3*n]
	pos := b.rows[n : 2*n] // the sort buffer until its own rows are copied in
	copy(b.rows, ts)
	turnLast(ts, pos)
	copy(b.rows[2*n:], ts)
	turnLast(ts, pos)
	copy(pos, ts)
	b.index()
}

// index builds lead and preds over the rows.
func (b *base) index() {
	n := len(b.rows) / 3
	var size [3]int
	for _, t := range b.rows[:n] {
		size = [3]int{max(size[0], int(t.S)), max(size[1], int(t.P)), max(size[2], int(t.O))}
	}
	for k := range size {
		size[k] = min(size[k], n) + 1
	}
	ids := append(b.lead[0][:0], make([]uint32, size[0]+size[1]+size[2])...)
	for k, from := 0, 0; k < 3; k++ {
		idx, run := ids[from:from+size[k]], b.run(k)
		for i, t := range run {
			if int(t.S) < len(idx) && (i == 0 || t.S != run[i-1].S) {
				idx[t.S] = uint32(i + 1)
			}
		}
		b.lead[k], from = idx, from+size[k]
	}

	b.preds = b.preds[:0]
	pos := b.run(1)
	for i, t := range pos {
		if i == 0 || t.S != pos[i-1].S {
			b.preds = append(b.preds, predStats{p: t.S})
		}
		if i == 0 || t.S != pos[i-1].S || t.P != pos[i-1].P {
			b.preds[len(b.preds)-1].objects++
		}
	}
	spo := b.run(0)
	for i, t := range spo {
		if i == 0 || t.S != spo[i-1].S || t.P != spo[i-1].P {
			b.pred(t.P).subjects++
		}
	}
}

// pred returns p's entry in preds, nil when p leads no triple.
func (b *base) pred(p ID) *predStats {
	i := sort.Search(len(b.preds), func(i int) bool { return !trieLess(b.preds[i].p, p) })
	if i == len(b.preds) || b.preds[i].p != p {
		return nil
	}
	return &b.preds[i]
}

// span returns the rows of run k (perm) whose first n components are
// key's.
func (b *base) span(k int, key Triple, n int) []Triple {
	run := b.run(k)
	if n == 0 {
		return run
	}
	if idx := b.lead[k]; int(key.S) < len(idx) {
		if idx[key.S] == 0 {
			return nil
		}
		run = run[idx[key.S]-1:]
	}
	lo := search(run, key, n, false)
	return run[lo : lo+search(run[lo:], key, n, true)]
}

// has reports whether the base holds (s, p, o).
func (b *base) has(s, p, o ID) bool {
	return b != nil && len(b.span(0, Triple{s, p, o}, 3)) != 0
}
