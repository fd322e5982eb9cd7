package rdf

import "math/bits"

// This file implements the persistent (structurally shared) containers
// the copy-on-write graph states are built from: a bitmap-compressed
// radix trie keyed by uint32 dictionary IDs — the classic
// hash-array-mapped-trie layout, except IDs are dense and uncorrelated
// enough that the key bits are used directly, no hashing.
//
// Ownership: every node and every pset/pmid header carries the edit
// tag of the transaction that made it (0: made by a bare, single-triple
// write). A mutator called with a non-zero tag writes in place what
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

const (
	pmBits = 5
	pmMask = 1<<pmBits - 1
	// pmMaxDepth bounds the iterator stack: 7 chunk levels plus one
	// guard frame.
	pmMaxDepth = 8
)

// pmSlot is one populated position of a node: a leaf when child is
// nil, an edge otherwise.
type pmSlot[V any] struct {
	child *pmNode[V]
	key   uint32
	val   V
}

// pmNode is a trie node, immutable to everyone but the live owner of
// its tag. A nil *pmNode is the empty trie.
type pmNode[V any] struct {
	bitmap uint32
	tag    uint32
	slots  []pmSlot[V]
}

// pmGet returns the value stored under key.
func pmGet[V any](n *pmNode[V], key uint32) (V, bool) {
	shift := uint(0)
	for n != nil {
		bit := uint32(1) << ((key >> shift) & pmMask)
		if n.bitmap&bit == 0 {
			break
		}
		sl := &n.slots[bits.OnesCount32(n.bitmap&(bit-1))]
		if sl.child == nil {
			if sl.key == key {
				return sl.val, true
			}
			break
		}
		n = sl.child
		shift += pmBits
	}
	var zero V
	return zero, false
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

// pmSet binds key to v and returns the trie's root; the bool reports
// whether the key was absent before (an insert rather than a replace).
// Nodes tag owns are edited in place; any other node on the path is
// copied, and the copy carries tag.
func pmSet[V any](n *pmNode[V], tag uint32, shift uint, key uint32, v V) (*pmNode[V], bool) {
	if n == nil {
		idx := (key >> shift) & pmMask
		return &pmNode[V]{bitmap: 1 << idx, tag: tag, slots: []pmSlot[V]{{key: key, val: v}}}, true
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
		slots[pos] = pmSlot[V]{key: key, val: v}
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
		sl.child, added = pmSet(sl.child, tag, shift+pmBits, key, v)
	case sl.key == key:
		sl.val = v
	default:
		sl = pmSlot[V]{child: pmSplit(tag, sl.key, sl.val, key, v, shift+pmBits)}
		added = true
	}
	n = n.own(tag)
	n.slots[pos] = sl
	return n, added
}

// pmSplit builds the subtree holding two distinct keys that collided
// at the parent level. Distinct uint32 keys differ in some chunk, so
// the recursion terminates.
func pmSplit[V any](tag uint32, k1 uint32, v1 V, k2 uint32, v2 V, shift uint) *pmNode[V] {
	i1 := (k1 >> shift) & pmMask
	i2 := (k2 >> shift) & pmMask
	if i1 == i2 {
		child := pmSplit(tag, k1, v1, k2, v2, shift+pmBits)
		return &pmNode[V]{bitmap: 1 << i1, tag: tag, slots: []pmSlot[V]{{child: child}}}
	}
	n := &pmNode[V]{bitmap: 1<<i1 | 1<<i2, tag: tag}
	if i1 < i2 {
		n.slots = []pmSlot[V]{{key: k1, val: v1}, {key: k2, val: v2}}
	} else {
		n.slots = []pmSlot[V]{{key: k2, val: v2}, {key: k1, val: v1}}
	}
	return n
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

// next yields the following (key, value) leaf, or ok=false at the end.
func (it *pmIter[V]) next() (uint32, V, bool) {
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
		return sl.key, sl.val, true
	}
	var zero V
	return 0, zero, false
}

// pset is a set of IDs: the innermost index level. A nil *pset is
// empty. Its header follows the nodes' ownership rule.
type pset struct {
	root *pmNode[struct{}]
	n    int32
	tag  uint32
}

func (s *pset) len() int {
	if s == nil {
		return 0
	}
	return int(s.n)
}

func (s *pset) has(id ID) bool {
	if s == nil {
		return false
	}
	_, ok := pmGet(s.root, uint32(id))
	return ok
}

// edit returns the header an edit tagged tag writes: s itself when tag
// owns it, a copy carrying tag otherwise.
func (s *pset) edit(tag uint32) *pset {
	switch {
	case s == nil:
		return &pset{tag: tag}
	case owned(s.tag, tag):
		return s
	}
	return &pset{root: s.root, n: s.n, tag: tag}
}

// with returns the set including id; false when it was already there.
func (s *pset) with(tag uint32, id ID) (*pset, bool) {
	var root *pmNode[struct{}]
	if s != nil {
		root = s.root
	}
	root, added := pmSet(root, tag, 0, uint32(id), struct{}{})
	if !added {
		return s, false
	}
	s = s.edit(tag)
	s.root = root
	s.n++
	return s, true
}

// without returns the set excluding id (nil when it becomes empty);
// false when id was absent.
func (s *pset) without(tag uint32, id ID) (*pset, bool) {
	if s == nil {
		return nil, false
	}
	root, removed := pmDel(s.root, tag, 0, uint32(id))
	if !removed {
		return s, false
	}
	if s.n == 1 {
		return nil, true
	}
	s = s.edit(tag)
	s.root = root
	s.n--
	return s, true
}

// pmid is a map from ID to *pset — the middle index level — carrying
// the subtree's triple total so single-bound cardinality probes stay
// O(lookup). A nil *pmid is empty. Same ownership rule as pset.
type pmid struct {
	root  *pmNode[*pset]
	n     int32 // distinct keys
	tag   uint32
	total int // triples in all sets
}

func (m *pmid) keys() int {
	if m == nil {
		return 0
	}
	return int(m.n)
}

func (m *pmid) triples() int {
	if m == nil {
		return 0
	}
	return m.total
}

func (m *pmid) get(k ID) *pset {
	if m == nil {
		return nil
	}
	s, _ := pmGet(m.root, uint32(k))
	return s
}

// edit is pset.edit for the middle level.
func (m *pmid) edit(tag uint32) *pmid {
	switch {
	case m == nil:
		return &pmid{tag: tag}
	case owned(m.tag, tag):
		return m
	}
	return &pmid{root: m.root, n: m.n, tag: tag, total: m.total}
}

// withAdd returns the map with v added to the set under k; false when
// the (k, v) pair was already present.
func (m *pmid) withAdd(tag uint32, k, v ID) (*pmid, bool) {
	set := m.get(k)
	nset, added := set.with(tag, v)
	if !added {
		return m, false
	}
	m = m.edit(tag)
	// A set edited in place is already where the trie points.
	if nset != set {
		m.root, _ = pmSet(m.root, tag, 0, uint32(k), nset)
	}
	if set == nil {
		m.n++
	}
	m.total++
	return m, true
}

// withDel returns the map with v removed from the set under k (nil
// when the map becomes empty); false when the pair was absent.
func (m *pmid) withDel(tag uint32, k, v ID) (*pmid, bool) {
	set := m.get(k)
	nset, removed := set.without(tag, v)
	if !removed {
		return m, false
	}
	if nset == nil && m.n == 1 {
		return nil, true
	}
	m = m.edit(tag)
	switch {
	case nset == nil:
		m.root, _ = pmDel(m.root, tag, 0, uint32(k))
		m.n--
	case nset != set:
		m.root, _ = pmSet(m.root, tag, 0, uint32(k), nset)
	}
	m.total--
	return m, true
}

// idxGet resolves the middle level of a three-level index.
func idxGet(root *pmNode[*pmid], a ID) *pmid {
	m, _ := pmGet(root, uint32(a))
	return m
}

// idxAdd inserts (a → b → c) into a three-level index.
func idxAdd(root *pmNode[*pmid], tag uint32, a, b, c ID) (*pmNode[*pmid], bool) {
	mid := idxGet(root, a)
	nmid, added := mid.withAdd(tag, b, c)
	if added && nmid != mid {
		root, _ = pmSet(root, tag, 0, uint32(a), nmid)
	}
	return root, added
}

// idxDel removes (a → b → c) from a three-level index.
func idxDel(root *pmNode[*pmid], tag uint32, a, b, c ID) (*pmNode[*pmid], bool) {
	mid := idxGet(root, a)
	nmid, removed := mid.withDel(tag, b, c)
	switch {
	case !removed:
	case nmid == nil:
		root, _ = pmDel(root, tag, 0, uint32(a))
	case nmid != mid:
		root, _ = pmSet(root, tag, 0, uint32(a), nmid)
	}
	return root, removed
}
