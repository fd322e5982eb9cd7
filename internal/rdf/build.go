package rdf

import (
	"math/bits"
	"slices"
	"sync"
)

// Build fills an empty graph with a batch of interned (non-zero) IDs
// and publishes the result once: the bulk alternative to a Tx adding
// them one by one, for a graph that is written once and then only read
// (a gather's scratch graph). ts may hold duplicates; Build sorts and
// compacts it in place, so its contents are unspecified afterwards.
//
// Each permutation is laid out bottom-up from one sorted run: the batch
// is sorted in trie order (sortTrie), every key's subtree is built from
// its contiguous run, and every node, slot array and set header is
// allocated once, at its final size. The trie layout is canonical — a
// key sits at the shallowest level where its low chunks are unique
// among the keys — so the graph has exactly the shape per-triple
// inserts would leave and enumerates in the same order. Built nodes
// carry tag 0, so a later Tx path-copies before it writes.
func (g *Graph) Build(ts []Triple) {
	g.checkWritable()
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if g.cur().size != 0 {
		panic("rdf: Build into a non-empty graph")
	}
	b := builders.Get().(*builder)
	defer b.release()
	b.tmp = slices.Grow(b.tmp[:0], len(ts))[:len(ts)]
	sortTrie(ts, b.tmp)
	ts = slices.Compact(ts)
	if len(ts) == 0 {
		return
	}
	st := &graphState{size: len(ts)}
	st.spo = b.index(ts)
	for i, t := range ts {
		if i == 0 || t.S != ts[i-1].S || t.P != ts[i-1].P {
			b.subjects[t.P]++
		}
	}
	// Rotating every triple turns the sorted-by-(s, p, o) batch into one
	// to sort by (p, o, s), then (o, s, p): one sort and one builder for
	// all three permutations.
	rotate(ts, b.tmp)
	st.pos = b.index(ts)
	// The distinct-subject counts are keyed by exactly POS's top-level
	// keys, in the same order.
	subj := make([]pmSlot[int32], len(b.top))
	for i, sl := range b.top {
		subj[i] = pmSlot[int32]{key: sl.key, val: b.subjects[ID(sl.key)]}
	}
	st.subjects = pmBuild(subj, 0)
	rotate(ts, b.tmp)
	st.osp = b.index(ts)
	g.publish(st)
}

// rotate moves every triple's components one place left, (a, b, c) →
// (b, c, a), and re-sorts the batch in trie order.
func rotate(ts, tmp []Triple) {
	for i, t := range ts {
		ts[i] = Triple{t.P, t.O, t.S}
	}
	sortTrie(ts, tmp)
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

// builder is Build's scratch, recycled through builders: the sort
// buffer, the leaf runs reused from one key to the next (top is one
// index's top level, mid one key's middle level, set one pair's
// innermost set) and the distinct-subject count per predicate.
type builder struct {
	tmp      []Triple
	top      []pmSlot[*pmid]
	mid      []pmSlot[*pset]
	set      []pmSlot[struct{}]
	subjects map[ID]int32
}

var builders = sync.Pool{New: func() any { return &builder{subjects: make(map[ID]int32)} }}

// release returns b to builders, dropping its references into the
// graph it built.
func (b *builder) release() {
	clear(b.top[:cap(b.top)])
	clear(b.mid[:cap(b.mid)])
	clear(b.subjects)
	builders.Put(b)
}

// index lays out the three-level index over ts, sorted in trie order by
// (S, P, O) with no triple twice, keyed S → P → O.
func (b *builder) index(ts []Triple) *pmNode[*pmid] {
	keys := 0
	for i := range ts {
		if i == 0 || ts[i].S != ts[i-1].S {
			keys++
		}
	}
	b.top = slices.Grow(b.top[:0], keys)
	for i := 0; i < len(ts); {
		j := i + 1
		for j < len(ts) && ts[j].S == ts[i].S {
			j++
		}
		b.top = append(b.top, pmSlot[*pmid]{key: uint32(ts[i].S), val: b.middle(ts[i:j])})
		i = j
	}
	return pmBuild(b.top, 0)
}

// middle lays out one top-level key's middle level from its run.
func (b *builder) middle(run []Triple) *pmid {
	b.mid = b.mid[:0]
	for i := 0; i < len(run); {
		j := i + 1
		for j < len(run) && run[j].P == run[i].P {
			j++
		}
		leaf := pmSlot[*pset]{key: uint32(run[i].P)}
		if j-i == 1 {
			leaf.one = uint32(run[i].O)
		} else {
			b.set = b.set[:0]
			for _, t := range run[i:j] {
				b.set = append(b.set, pmSlot[struct{}]{key: uint32(t.O)})
			}
			leaf.val = &pset{root: pmBuild(b.set, 0), n: int32(j - i)}
		}
		b.mid = append(b.mid, leaf)
		i = j
	}
	return &pmid{root: pmBuild(b.mid, 0), n: int32(len(b.mid)), total: len(run)}
}

// pmBuild lays out the trie over leaves — distinct keys in trie order
// (sortTrie), all agreeing below shift — as the node at shift: a chunk
// one leaf falls into holds it, a chunk several share is the edge to
// their own node. Every node and slot array is allocated at its final
// size.
func pmBuild[V any](leaves []pmSlot[V], shift uint) *pmNode[V] {
	n := &pmNode[V]{}
	for _, l := range leaves {
		n.bitmap |= 1 << (l.key >> shift & pmMask)
	}
	n.slots = make([]pmSlot[V], 0, bits.OnesCount32(n.bitmap))
	for i := 0; i < len(leaves); {
		chunk := leaves[i].key >> shift & pmMask
		j := i + 1
		for j < len(leaves) && leaves[j].key>>shift&pmMask == chunk {
			j++
		}
		if j-i == 1 {
			n.slots = append(n.slots, leaves[i])
		} else {
			n.slots = append(n.slots, pmSlot[V]{child: pmBuild(leaves[i:j], shift+pmBits)})
		}
		i = j
	}
	return n
}
