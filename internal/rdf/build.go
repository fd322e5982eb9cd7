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
// with its first row. Every array but preds is a vec packed at the bit
// length of its largest value. It holds no pointer the collector must
// follow past its slice headers.
type base struct {
	n int
	// runs[k] holds run k's rows without their keys: a row's first ID in
	// its low split[k] bits, its second above them. SPO's and OSP's rows
	// hold a predicate as its rank, its index in keys[1].
	runs  [3]vec
	split [3]uint
	// keys[k] is run k's directory: its distinct leading IDs in trie
	// order. The rows keys[k][d] leads are starts[k][d] up to
	// starts[k][d+1], whose last entry is n.
	keys, starts [3]vec
	// lead[k][id] is one more than id's index in keys[k], 0 when id leads
	// no row. It covers IDs up to n (dictionary IDs are dense from 1); a
	// key past its end is searched for in keys[k].
	lead [3]vec
	// preds[d] is the predicate keys[1][d], which ids turns a rank d back
	// into, and its numbers of distinct subjects and objects.
	preds []predStats
}

type predStats struct{ id, subjects, objects ID }

// vec is a packed vector: n values of w bits (mask is w ones), value i
// at bit i*w of words, a value straddling two words where it falls, and
// a word of padding at the end.
type vec struct {
	words []uint64
	n     int
	w     uint
	mask  uint64
}

// at decodes value i: every read of a vec goes through it. It reads the
// value's word and the next (the padding word backs the last); the next
// is shifted by 63-sh and 1 more, so a value that starts a word (sh 0)
// takes nothing from it.
func (v *vec) at(i int) uint64 {
	j, sh := uint(i)*v.w/64, uint(i)*v.w%64
	two := v.words[j : j+2 : j+2]
	return (two[0]>>sh | two[1]<<(63-sh)<<1) & v.mask
}

// pack lays v out afresh for n values of w bits, in its array when that
// has room, and returns the writer that fills it front to back.
func (v *vec) pack(n int, w uint) packer {
	v.words, v.n, v.w, v.mask = grow(v.words, n*int(w)/64+2), n, w, 1<<w-1
	return packer{words: v.words, w: w}
}

// packer gathers values in acc and stores each word once, when it is
// full: used bits of acc are taken, and i is the next word.
type packer struct {
	words   []uint64
	w, used uint
	acc     uint64
	i       int
}

// put appends x, which fits in w bits.
func (p *packer) put(x uint64) {
	p.acc |= x << p.used
	if p.used += p.w; p.used >= 64 {
		p.used -= 64
		p.words[p.i], p.acc = p.acc, x>>(p.w-p.used)
		p.i++
	}
}

// flush stores the last, partly filled word and the padding.
func (p *packer) flush() {
	for ; p.i < len(p.words); p.i++ {
		p.words[p.i], p.acc = p.acc, 0
	}
}

// ids decodes a row of run k, as at read it, into its two IDs, turning
// a rank back into its predicate: every read of a base row goes through
// it.
func (b *base) ids(k int, v uint64) (x, y ID) {
	x, y = ID(v)&(1<<b.split[k]-1), ID(v>>b.split[k])
	switch k {
	case 0:
		x = b.preds[x].id
	case 2:
		y = b.preds[y].id
	}
	return x, y
}

// grow returns s with n elements, in a new array when s has not room.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// fill lays ts — sorted in trie order, without duplicates — out as the
// base in the arrays it has, new ones where they are short, and indexes
// it. tmp (at least len(ts) triples) is the sort buffer and, between
// sorts, scratch; the contents of ts and tmp are unspecified afterwards.
func (b *base) fill(ts, tmp []Triple) {
	b.n, tmp = len(ts), tmp[:len(ts)]
	b.rank(ts, tmp)
	for i, k := range [3]int{0, 2, 1} { // turnLast takes SPO to OSP, OSP to POS
		if i != 0 {
			turnLast(ts, tmp)
		}
		b.run(k, ts, tmp)
	}
}

// rank lays POS's directory, its ID index and preds out ahead of the
// runs, which look ranks up in them (run lays the first two out again
// for POS, the same). It lists the predicates in tmp's S
// fields, sorts them in trie order and drops repeats; a predicate is
// listed again only when another with its ID mod 64 was listed since,
// so a few predicates are listed once each.
func (b *base) rank(ts, tmp []Triple) {
	var seen [64]ID
	top, m := ID(0), 0
	for _, t := range ts {
		if p := t.P; seen[p%64] != p {
			seen[p%64], tmp[m].S, m, top = p, p, m+1, max(top, p)
		}
	}
	ps := tmp[:m]
	slices.SortFunc(ps, func(x, y Triple) int {
		if trieLess(x.S, y.S) {
			return -1
		}
		return min(int(x.S^y.S), 1)
	})
	ps = slices.CompactFunc(ps, func(x, y Triple) bool { return x.S == y.S })
	marked, kw := marks(tmp, top), b.keys[1].pack(len(ps), uint(bits.Len32(uint32(top))))
	b.preds = grow(b.preds, len(ps))
	for d, t := range ps {
		if kw.put(uint64(t.S)); int(t.S) <= len(marked) {
			marked[t.S-1].O = ID(d + 1)
		}
		b.preds[d] = predStats{id: t.S}
	}
	kw.flush()
	b.index(1, marked)
}

// marks returns tmp's first min(top, len(tmp)) triples with their O
// fields zeroed: a scratch array that tmp[id-1].O indexes by ID.
func marks(tmp []Triple, top ID) []Triple {
	marked := tmp[:min(int(top), len(tmp))]
	for i := range marked {
		marked[i].O = 0
	}
	return marked
}

// run lays ts, turned to lead with run k's key and sorted, out as the
// run: its directory, ID index and rows, each front to back. It counts
// the predicates' distinct subjects, their (s, p) pairs, in SPO and
// their distinct objects, their (p, o) pairs, in POS. tmp is scratch.
func (b *base) run(k int, ts, tmp []Triple) {
	keys, top, ta, tb := 0, ID(0), ID(0), ID(0)
	for r, t := range ts {
		if r == 0 || t.S != ts[r-1].S {
			keys, top = keys+1, max(top, t.S)
		}
		ta, tb = max(ta, t.P), max(tb, t.O)
	}
	w := [2]uint{uint(bits.Len32(uint32(ta))), uint(bits.Len32(uint32(tb)))}
	if k != 1 { // the rank column: SPO's first, OSP's second
		w[k/2] = uint(bits.Len(uint(max(len(b.preds), 1) - 1)))
	}
	b.split[k] = w[0]
	marked := marks(tmp, top)
	kw, sw, rw := b.keys[k].pack(keys, uint(bits.Len32(uint32(top)))), b.starts[k].pack(keys+1, uint(bits.Len(uint(len(ts))))), b.runs[k].pack(len(ts), w[0]+w[1])
	d, last, lead := -1, ID(0), &b.lead[1]
	rank := func(p ID) ID { // find, its common case inlined
		if int(p) < lead.n {
			return ID(lead.at(int(p)) - 1)
		}
		return ID(b.find(1, p))
	}
	for r, t := range ts {
		xy := [2]ID{t.P, t.O}
		if k != 1 {
			xy[k/2] = rank(xy[k/2])
		}
		x, fresh := xy[0], r == 0 || t.S != ts[r-1].S
		if fresh {
			d++
			kw.put(uint64(t.S))
			sw.put(uint64(r))
			if int(t.S) <= len(marked) {
				marked[t.S-1].O = ID(d + 1)
			}
		}
		if k == 0 && (fresh || x != last) {
			b.preds[x].subjects++
		} else if k == 1 && (fresh || x != last) {
			b.preds[d].objects++
		}
		last = x
		rw.put(uint64(x) | uint64(xy[1])<<w[0])
	}
	sw.put(uint64(len(ts)))
	kw.flush()
	sw.flush()
	rw.flush()
	b.index(k, marked)
}

// index writes run k's ID index from marked, whose entry id-1 holds id's
// in its O field.
func (b *base) index(k int, marked []Triple) {
	lw := b.lead[k].pack(len(marked)+1, uint(bits.Len(uint(b.keys[k].n))))
	lw.put(0)
	for _, t := range marked {
		lw.put(uint64(t.O))
	}
	lw.flush()
}

// find returns id's index in run k's directory, -1 when id leads no row.
func (b *base) find(k int, id ID) int {
	if lead := &b.lead[k]; int(id) < lead.n {
		return int(lead.at(int(id))) - 1
	}
	keys := &b.keys[k]
	d := sort.Search(keys.n, func(i int) bool { return !trieLess(ID(keys.at(i)), id) })
	if d == keys.n || ID(keys.at(d)) != id {
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
	lo, end := int(b.starts[k].at(d)), int(b.starts[k].at(d+1))
	if n == 1 {
		return d, lo, end
	}
	rows := &b.runs[k]
	for c := end - lo; c > 0; { // the first row not before the rest of key
		half := c / 2
		if x, y := b.ids(k, rows.at(lo+half)); before(Triple{x, y, 0}, Triple{key.P, key.O, 0}, n-1) {
			lo, c = lo+half+1, c-half-1
		} else {
			c = half
		}
	}
	if n == 3 {
		if lo < end {
			if x, y := b.ids(k, rows.at(lo)); x == key.P && y == key.O {
				return d, lo, lo + 1
			}
		}
		return d, lo, lo
	}
	return d, lo, lo + sort.Search(end-lo, func(i int) bool {
		x, _ := b.ids(k, rows.at(lo+i))
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
