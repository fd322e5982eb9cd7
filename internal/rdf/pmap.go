package rdf

import "math/bits"

// This file implements the persistent (structurally shared) container
// a graph state's delta lives in — its adds, tombstones and the
// statistics they move (graphState); the bulk of the triples sits in
// the sorted base (build.go). It is a bitmap-compressed radix trie keyed
// by uint32 dictionary IDs — the hash-array-mapped-trie layout, except
// IDs are dense and uncorrelated enough to be used directly, no hashing
// — and iterates its keys in the order the base's runs are sorted in
// (sortTrie), which lets a read merge the two.
//
// Ownership: every node and every pset/pmid header carries the edit
// tag of the transaction that made it (0: made once the tags ran out,
// see txTags). A mutator called with a non-zero tag writes in place what
// carries that tag and copies — tagging the copy — anything else, so a
// transaction pays one path copy on its first touch of a published
// node and nothing on later touches. A tag is drawn once at Begin and
// never again, so it dies at Commit/Abort and everything carrying it
// is frozen from then on; what carries a live tag is referenced only
// by nodes carrying it too, up to roots only the transaction holds, so
// no reader can reach a node that is still being written.
//
// Layout: each node consumes 5 key bits per level (low bits first, so
// dense IDs spread across children immediately); a set bitmap bit marks
// a populated child slot, and slots are packed in bit order. A slot is
// either a leaf (key + value) or an edge to a deeper node. Two keys
// sharing a 5-bit chunk split lazily, so tries over sparse key sets
// stay shallow. Depth is bounded by ceil(32/5) = 7.
//
// A leaf of the middle index level holds a set of IDs, and most of
// those have one member: that member lives in the slot itself (one,
// in what used to be padding) with val nil, and only a set of two or
// more is a *pset behind val. A slot is part of the node that holds
// it, so one is written the way key and val are: by pmSet, after
// n.own(tag).

const (
	pmBits = 5
	pmMask = 1<<pmBits - 1
	// pmMaxDepth bounds the iterator stack: 7 chunk levels plus one
	// guard frame.
	pmMaxDepth = 8
)

// pmSlot is one populated position of a node: a leaf when child is
// nil, an edge otherwise. one is the inline member of a middle-level
// leaf (idset) and zero everywhere else. val stands before the two
// words so that an empty V adds no tail padding.
type pmSlot[V any] struct {
	child *pmNode[V]
	val   V
	key   uint32
	one   uint32
}

// pmNode is a trie node, immutable to everyone but the live owner of
// its tag. A nil *pmNode is the empty trie.
type pmNode[V any] struct {
	bitmap uint32
	tag    uint32
	slots  []pmSlot[V]
}

// pmFind returns the leaf stored under key, nil when there is none.
// The slot is the node's: read it, change it only through pmSet.
func pmFind[V any](n *pmNode[V], key uint32) *pmSlot[V] {
	shift := uint(0)
	for n != nil {
		bit := uint32(1) << ((key >> shift) & pmMask)
		if n.bitmap&bit == 0 {
			break
		}
		sl := &n.slots[bits.OnesCount32(n.bitmap&(bit-1))]
		if sl.child == nil {
			if sl.key == key {
				return sl
			}
			break
		}
		n = sl.child
		shift += pmBits
	}
	return nil
}

// owned is the ownership rule: an edit tagged tag may write in place
// a node or header whose own tag is by only when the two are the same
// live (non-zero) transaction's.
func owned(by, tag uint32) bool { return tag != 0 && by == tag }

// own returns n itself when tag owns it, else a copy carrying tag.
func (n *pmNode[V]) own(tag uint32) *pmNode[V] {
	if owned(n.tag, tag) {
		return n
	}
	return &pmNode[V]{bitmap: n.bitmap, tag: tag, slots: append([]pmSlot[V](nil), n.slots...)}
}

// pmSet stores leaf under its key and returns the trie's root; the bool
// reports whether the key was absent before (an insert rather than a
// replace). Nodes tag owns are edited in place; any other node on the
// path is copied, and the copy carries tag.
func pmSet[V any](n *pmNode[V], tag uint32, shift uint, leaf pmSlot[V]) (*pmNode[V], bool) {
	key := leaf.key
	if n == nil {
		idx := (key >> shift) & pmMask
		return &pmNode[V]{bitmap: 1 << idx, tag: tag, slots: []pmSlot[V]{leaf}}, true
	}
	bit := uint32(1) << ((key >> shift) & pmMask)
	pos := bits.OnesCount32(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		slots, mine := n.slots, owned(n.tag, tag)
		if mine && len(slots) < cap(slots) {
			slots = slots[:len(slots)+1]
		} else {
			// A fresh array as large as the allocator's size class for
			// len+1 slots: room an owner fills later, no byte more than
			// an exact-sized array occupies.
			slots = append([]pmSlot[V](nil), make([]pmSlot[V], len(slots)+1)...)
			copy(slots, n.slots[:pos])
		}
		copy(slots[pos+1:], n.slots[pos:])
		slots[pos] = leaf
		if !mine {
			n = &pmNode[V]{tag: tag, bitmap: n.bitmap}
		}
		n.bitmap |= bit
		n.slots = slots
		return n, true
	}
	sl := n.slots[pos]
	added := false
	switch {
	case sl.child != nil:
		sl.child, added = pmSet(sl.child, tag, shift+pmBits, leaf)
	case sl.key == key:
		sl = leaf
	default:
		sl = pmSlot[V]{child: pmSplit(tag, sl, leaf, shift+pmBits)}
		added = true
	}
	n = n.own(tag)
	n.slots[pos] = sl
	return n, added
}

// pmSplit builds the subtree holding two leaves whose distinct keys
// collided at the parent level. Distinct uint32 keys differ in some
// chunk, so the recursion terminates.
func pmSplit[V any](tag uint32, a, b pmSlot[V], shift uint) *pmNode[V] {
	ia := (a.key >> shift) & pmMask
	ib := (b.key >> shift) & pmMask
	if ia == ib {
		child := pmSplit(tag, a, b, shift+pmBits)
		return &pmNode[V]{bitmap: 1 << ia, tag: tag, slots: []pmSlot[V]{{child: child}}}
	}
	if ia > ib {
		a, b = b, a
	}
	return &pmNode[V]{bitmap: 1<<ia | 1<<ib, tag: tag, slots: []pmSlot[V]{a, b}}
}

// pmDel removes key and returns the trie's root (same ownership rule
// as pmSet); the bool reports whether the key was present. Nodes left
// with a single leaf are collapsed into their parent slot, keeping
// lookup paths short after churn.
func pmDel[V any](n *pmNode[V], tag uint32, shift uint, key uint32) (*pmNode[V], bool) {
	if n == nil {
		return nil, false
	}
	bit := uint32(1) << ((key >> shift) & pmMask)
	if n.bitmap&bit == 0 {
		return n, false
	}
	pos := bits.OnesCount32(n.bitmap & (bit - 1))
	sl := n.slots[pos]
	if sl.child != nil {
		child, removed := pmDel(sl.child, tag, shift+pmBits, key)
		if !removed {
			return n, false
		}
		if child == nil {
			return pmWithout(n, tag, bit, pos), true
		}
		n = n.own(tag)
		if len(child.slots) == 1 && child.slots[0].child == nil {
			n.slots[pos] = child.slots[0]
		} else {
			n.slots[pos] = pmSlot[V]{child: child}
		}
		return n, true
	}
	if sl.key != key {
		return n, false
	}
	return pmWithout(n, tag, bit, pos), true
}

// pmWithout removes the slot at pos (bitmap bit) from n — in place when
// tag owns it, from a copy otherwise — returning nil when it was the
// last one.
func pmWithout[V any](n *pmNode[V], tag uint32, bit uint32, pos int) *pmNode[V] {
	last := len(n.slots) - 1
	if last == 0 {
		return nil
	}
	if owned(n.tag, tag) {
		copy(n.slots[pos:], n.slots[pos+1:])
		n.slots[last] = pmSlot[V]{}
		n.bitmap, n.slots = n.bitmap&^bit, n.slots[:last]
		return n
	}
	slots := make([]pmSlot[V], last)
	copy(slots, n.slots[:pos])
	copy(slots[pos:], n.slots[pos+1:])
	return &pmNode[V]{bitmap: n.bitmap &^ bit, tag: tag, slots: slots}
}

// pmIter is an explicit-stack in-order cursor over a trie. It lives on
// the caller's stack (fixed-depth frame array, no allocation), which
// is what keeps the bound-probe and early-termination enumeration
// paths allocation-free.
type pmIter[V any] struct {
	stack [pmMaxDepth]pmIterState[V]
	depth int
}

// pmIterState is one stack frame: a node and the next slot to visit.
type pmIterState[V any] struct {
	n *pmNode[V]
	i int
}

func (it *pmIter[V]) init(n *pmNode[V]) {
	it.depth = 0
	if n != nil {
		it.stack[0] = pmIterState[V]{n: n}
		it.depth = 1
	}
}

// next yields the following leaf, or nil at the end.
func (it *pmIter[V]) next() *pmSlot[V] {
	for it.depth > 0 {
		fr := &it.stack[it.depth-1]
		if fr.i >= len(fr.n.slots) {
			it.depth--
			continue
		}
		sl := &fr.n.slots[fr.i]
		fr.i++
		if sl.child != nil {
			it.stack[it.depth] = pmIterState[V]{n: sl.child}
			it.depth++
			continue
		}
		return sl
	}
	return nil
}

// pset is a set of two or more IDs: the innermost index level once a
// set has outgrown its slot. Its header follows the nodes' ownership
// rule.
type pset struct {
	root *pmNode[struct{}]
	n    int32
	tag  uint32
}

// edit returns the header an edit tagged tag writes: s itself when tag
// owns it, a copy carrying tag otherwise.
func (s *pset) edit(tag uint32) *pset {
	if owned(s.tag, tag) {
		return s
	}
	return &pset{root: s.root, n: s.n, tag: tag}
}

// with returns the set including id; false when it was already there.
func (s *pset) with(tag uint32, id ID) (*pset, bool) {
	root, added := pmSet(s.root, tag, 0, pmSlot[struct{}]{key: uint32(id)})
	if !added {
		return s, false
	}
	s = s.edit(tag)
	s.root = root
	s.n++
	return s, true
}

// without returns the set excluding id; false when id was absent. The
// caller (withDel) never lets a set fall below two members.
func (s *pset) without(tag uint32, id ID) (*pset, bool) {
	root, removed := pmDel(s.root, tag, 0, uint32(id))
	if !removed {
		return s, false
	}
	s = s.edit(tag)
	s.root = root
	s.n--
	return s, true
}

// idset is an innermost set as its middle-level slot holds it: the one
// member inline, or two and more behind set (then one is 0). The zero
// idset is empty.
type idset struct {
	one ID
	set *pset
}

// slotSet reads the set a middle-level leaf holds.
func slotSet(sl *pmSlot[*pset]) idset { return idset{ID(sl.one), sl.val} }

func (s idset) len() int {
	switch {
	case s.set != nil:
		return int(s.set.n)
	case s.one != 0:
		return 1
	}
	return 0
}

func (s idset) has(id ID) bool {
	if s.set != nil {
		return pmFind(s.set.root, uint32(id)) != nil
	}
	return id != 0 && s.one == id
}

// pmid is a map from ID to idset — the middle index level — carrying
// the subtree's triple total so single-bound cardinality probes stay
// O(lookup). A nil *pmid is empty. Same ownership rule as pset.
type pmid struct {
	root  *pmNode[*pset]
	tag   uint32
	total int // triples in all sets
}

func (m *pmid) triples() int {
	if m == nil {
		return 0
	}
	return m.total
}

// count is the number of triples under key b, or with b 0 under all.
func (m *pmid) count(b ID) int {
	if b == 0 {
		return m.triples()
	}
	return m.get(b).len()
}

func (m *pmid) get(k ID) idset {
	if m != nil {
		if sl := pmFind(m.root, uint32(k)); sl != nil {
			return slotSet(sl)
		}
	}
	return idset{}
}

// edit is pset.edit for the middle level.
func (m *pmid) edit(tag uint32) *pmid {
	switch {
	case m == nil:
		return &pmid{tag: tag}
	case owned(m.tag, tag):
		return m
	}
	return &pmid{root: m.root, tag: tag, total: m.total}
}

// withAdd returns the map with v added to the set under k; added is
// false when the (k, v) pair was already present. The first member goes
// into the slot, the second builds the pset.
func (m *pmid) withAdd(tag uint32, k, v ID) (_ *pmid, added bool) {
	old := m.get(k)
	leaf := pmSlot[*pset]{key: uint32(k)}
	switch {
	case old.set != nil:
		if leaf.val, added = old.set.with(tag, v); !added {
			return m, false
		}
	case old.one == v:
		return m, false
	case old.one != 0:
		two := pmSplit(tag, pmSlot[struct{}]{key: uint32(old.one)}, pmSlot[struct{}]{key: uint32(v)}, 0)
		leaf.val = &pset{root: two, n: 2, tag: tag}
	default:
		leaf.one = uint32(v)
	}
	m = m.edit(tag)
	// A set edited in place is already where the trie points.
	if leaf.val == nil || leaf.val != old.set {
		m.root, _ = pmSet(m.root, tag, 0, leaf)
	}
	m.total++
	return m, true
}

// withDel returns the map with v removed from the set under k (nil
// when the map becomes empty); removed is false when the pair was
// absent. A set left with one member moves back into the slot.
func (m *pmid) withDel(tag uint32, k, v ID) (_ *pmid, removed bool) {
	gone := false
	old := m.get(k)
	leaf := pmSlot[*pset]{key: uint32(k)}
	switch {
	case old.set == nil:
		if !old.has(v) {
			return m, false
		}
		gone = true
	case old.set.n == 2:
		var it pmIter[struct{}]
		it.init(old.set.root)
		a, b := it.next().key, it.next().key
		switch uint32(v) {
		case a:
			leaf.one = b
		case b:
			leaf.one = a
		default:
			return m, false
		}
	default:
		if leaf.val, removed = old.set.without(tag, v); !removed {
			return m, false
		}
	}
	if gone && m.total == 1 {
		return nil, true
	}
	m = m.edit(tag)
	switch {
	case gone:
		m.root, _ = pmDel(m.root, tag, 0, uint32(k))
	case leaf.val == nil || leaf.val != old.set:
		m.root, _ = pmSet(m.root, tag, 0, leaf)
	}
	m.total--
	return m, true
}

// idxGet resolves the middle level of a three-level index.
func idxGet(root *pmNode[*pmid], a ID) *pmid {
	if sl := pmFind(root, uint32(a)); sl != nil {
		return sl.val
	}
	return nil
}

// idxAdd inserts (a → b → c) into a three-level index.
func idxAdd(root *pmNode[*pmid], tag uint32, a, b, c ID) (_ *pmNode[*pmid], added bool) {
	mid := idxGet(root, a)
	nmid, added := mid.withAdd(tag, b, c)
	if added && nmid != mid {
		root, _ = pmSet(root, tag, 0, pmSlot[*pmid]{key: uint32(a), val: nmid})
	}
	return root, added
}

// idxDel removes (a → b → c) from a three-level index.
func idxDel(root *pmNode[*pmid], tag uint32, a, b, c ID) (_ *pmNode[*pmid], removed bool) {
	mid := idxGet(root, a)
	nmid, removed := mid.withDel(tag, b, c)
	switch {
	case !removed:
	case nmid == nil:
		root, _ = pmDel(root, tag, 0, uint32(a))
	case nmid != mid:
		root, _ = pmSet(root, tag, 0, pmSlot[*pmid]{key: uint32(a), val: nmid})
	}
	return root, removed
}
