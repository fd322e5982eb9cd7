package rdf

import (
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
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
	// The base goes into the arrays Reset kept, where they fit, and sorts
	// in the graph's own buffer, or sortSlot's, or a new one.
	b, tmp := g.spare, g.sortBuf
	if g.spare, g.sortBuf = nil, nil; b == nil {
		b = new(base)
	}
	if tmp == nil {
		if tmp = sortSlot.Swap(nil); tmp == nil {
			tmp = new([]Triple)
		}
	}
	*tmp = grow(*tmp, len(ts))
	b.fill(sortedSet(ts, *tmp), *tmp)
	if len(*tmp) <= maxScratch && !sortSlot.CompareAndSwap(nil, tmp) {
		g.sortBuf = tmp
	}
	g.publish(&graphState{base: b, size: b.n, sealed: true})
}

// sortSlot holds a sort buffer of up to maxScratch rows for the next
// Build. A Build puts its buffer back there, or keeps it with its graph
// when the slot is full, so Builds on one goroutine share one buffer,
// concurrent ones each come to keep their own, and no collection empties
// either, as one would a sync.Pool.
var sortSlot atomic.Pointer[[]Triple]

// maxScratch bounds, in rows or terms, what Reset keeps for the next
// Build and what a sort buffer holds; the shard and protocol packages'
// pools share the bound.
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
	if st := g.cur(); st.sealed && st.base.n <= maxScratch {
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

// base is the immutable part of a graph's triples: the three
// permutations, each triple turned to lead with its run's key — SPO as
// (s, p, o), POS as (p, o, s), OSP as (o, s, p) — and sorted in trie
// order, so a base enumerates every pattern in the order the delta's
// tries do. A run is stored in compressed sparse row form: its rows'
// two trailing IDs, and a directory of its distinct leading IDs, each
// with its first row. It holds no pointer the collector must follow
// past its slice headers.
type base struct {
	// words packs the three runs' rows without their keys, n rows each:
	// SPO's, then POS's, then OSP's. A row is 2w bits, w the bit length
	// of the base's largest ID (mask is w ones): its first ID in the low
	// w, its second in the high w, back to back, a row straddling two
	// words where it falls, and one word of padding at the end.
	words []uint64
	n     int
	w     uint
	mask  uint64
	// keys[k] is run k's directory: its distinct leading IDs in trie
	// order. The rows keys[k][d] leads are starts[k][d] up to
	// starts[k][d+1], whose last entry is n.
	keys   [3][]ID
	starts [3][]uint32
	// lead[k][id] is one more than id's index in keys[k], 0 when id leads
	// no row. It covers IDs up to n (dictionary IDs are dense from 1); a
	// key past its end is searched for in keys[k].
	lead [3][]uint32
	// preds[d] holds the numbers of distinct subjects and objects of the
	// predicate keys[1][d].
	preds []predStats
}

type predStats struct{ subjects, objects int32 }

// at decodes the row that starts at bit: every read of a base row goes
// through it. It reads the row's word and the next (the padding word
// backs the last row); the next is shifted by 63-sh and 1 more, so a
// row that starts a word (sh 0) takes nothing from it, and w&63 spares
// the shift by w a range check.
func (b *base) at(bit uint) (x, y ID) {
	i, sh := bit/64, bit%64
	two := b.words[i : i+2 : i+2]
	v := two[0]>>sh | two[1]<<(63-sh)<<1
	return ID(v & b.mask), ID(v >> (b.w & 63) & b.mask)
}

// bit is where row r of run k (0 SPO, 1 POS, 2 OSP) starts in words.
func (b *base) bit(k, r int) uint { return uint(k*b.n+r) * 2 * b.w }

// grow returns s with n elements, in a new array when s has not room.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// fill lays ts — sorted in trie order, without duplicates — out as the
// base in the arrays it has, new ones where they are short, and indexes
// it. tmp (len(ts) triples) is the sort buffer; the contents of ts and
// tmp are unspecified afterwards.
func (b *base) fill(ts, tmp []Triple) {
	n, largest := len(ts), ID(0)
	for _, t := range ts {
		largest = max(largest, t.S, t.P, t.O)
	}
	b.n, b.w = n, uint(bits.Len32(uint32(largest)))
	b.mask = 1<<b.w - 1
	b.words = grow(b.words, (3*n*2*int(b.w)+63)/64+1)
	// Rows are OR-ed in: adjacent runs share the word where they meet.
	clear(b.words)
	for i, k := range [3]int{0, 2, 1} { // turnLast takes SPO to OSP, OSP to POS
		if i != 0 {
			turnLast(ts, tmp)
		}
		keys, top := 0, ID(0)
		for r, t := range ts {
			if r == 0 || t.S != ts[r-1].S {
				keys, top = keys+1, max(top, t.S)
			}
		}
		b.keys[k], b.starts[k] = grow(b.keys[k], keys)[:0], grow(b.starts[k], keys+1)[:0]
		b.lead[k] = grow(b.lead[k], min(int(top), n)+1)
		clear(b.lead[k])
		at := b.bit(k, 0)
		for r, t := range ts {
			if r == 0 || t.S != ts[r-1].S {
				if int(t.S) < len(b.lead[k]) {
					b.lead[k][t.S] = uint32(len(b.keys[k]) + 1)
				}
				b.keys[k], b.starts[k] = append(b.keys[k], t.S), append(b.starts[k], uint32(r))
			}
			v := uint64(t.P) | uint64(t.O)<<b.w
			b.words[at/64] |= v << (at % 64)
			b.words[at/64+1] |= v >> (63 - at%64) >> 1
			at += 2 * b.w
		}
		b.starts[k] = append(b.starts[k], uint32(n))
	}

	// A predicate's distinct objects are the distinct first IDs of its POS
	// rows, its distinct subjects the SPO keys with a row that it leads.
	b.preds = grow(b.preds, len(b.keys[1]))
	clear(b.preds)
	for _, k := range [2]int{1, 0} {
		for r, bit, d, last := 0, b.bit(k, 0), -1, ID(0); r < n; r, bit = r+1, bit+2*b.w {
			if r == int(b.starts[k][d+1]) {
				d, last = d+1, 0 // a new key: no ID is 0
			}
			x, _ := b.at(bit)
			if x == last {
				continue
			}
			if last = x; k == 1 {
				b.preds[d].objects++
			} else {
				b.preds[b.find(1, x)].subjects++
			}
		}
	}
}

// find returns id's index in run k's directory, -1 when id leads no row.
func (b *base) find(k int, id ID) int {
	if lead := b.lead[k]; int(id) < len(lead) {
		return int(lead[id]) - 1
	}
	keys := b.keys[k]
	d := sort.Search(len(keys), func(i int) bool { return !trieLess(keys[i], id) })
	if d == len(keys) || keys[d] != id {
		return -1
	}
	return d
}

// span returns the rows of run k whose first n components are key's:
// rows lo up to hi, led by the run's d-th key (by every key from the
// first on when n is 0). Below the key, one search finds the first row
// not before the rest of it; a full key is that row or none, and a
// (key, a) prefix runs on while the row's first ID is a.
func (b *base) span(k int, key Triple, n int) (d, lo, hi int) {
	if n == 0 {
		return 0, 0, b.n
	}
	if d = b.find(k, key.S); d < 0 {
		return 0, 0, 0
	}
	lo, end := int(b.starts[k][d]), int(b.starts[k][d+1])
	if n == 1 {
		return d, lo, end
	}
	for rows := end - lo; rows > 0; { // the first row not before the rest of key
		half := rows / 2
		if x, y := b.at(b.bit(k, lo+half)); before(Triple{x, y, 0}, Triple{key.P, key.O, 0}, n-1) {
			lo, rows = lo+half+1, rows-half-1
		} else {
			rows = half
		}
	}
	if n == 3 {
		if lo < end {
			if x, y := b.at(b.bit(k, lo)); x == key.P && y == key.O {
				return d, lo, lo + 1
			}
		}
		return d, lo, lo
	}
	return d, lo, lo + sort.Search(end-lo, func(i int) bool {
		x, _ := b.at(b.bit(k, lo+i))
		return x != key.P
	})
}

// baseRows is a span of base rows: rows lo up to hi of b's run k, the
// one at lo led by its d-th key.
type baseRows struct {
	b            *base
	k, d, lo, hi int
}

// rows returns the span of the rows of run k whose first n components
// are key's; a nil base has none.
func (b *base) rows(k int, key Triple, n int) (r baseRows) {
	if r.b, r.k = b, k; b != nil {
		r.d, r.lo, r.hi = b.span(k, key, n)
	}
	return r
}

// has reports whether the base holds (s, p, o).
func (b *base) has(s, p, o ID) bool {
	if b == nil {
		return false
	}
	_, lo, hi := b.span(0, Triple{s, p, o}, 3)
	return lo < hi
}
