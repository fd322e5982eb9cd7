package rdf

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"scisparql/internal/array"
)

// ID is a dictionary-encoded term identifier, local to one Graph's
// dictionary. 0 is the invalid / wildcard ID.
type ID uint32

// Unbound is the explicit unbound-row sentinel in columnar batches: a
// column cell holding Unbound means the variable has no binding on that
// row (OPTIONAL left rows without a match, UNION branches missing a
// projection). It is the same value as the Match wildcard / invalid ID,
// which is what makes the sentinel safe — no interned term ever has
// ID 0, so 0 in a column can only mean "unbound".
const Unbound ID = 0

// Triple is a dictionary-encoded (subject, property, value) triple.
type Triple struct {
	S, P, O ID
}

// graphState is one immutable version of a graph's triple content: a
// sorted, pointer-free base (build.go) shared by every version since the
// last compaction, and a small delta of what was written after it. Both
// keep three index permutations (SPO, POS, OSP — the indexing of the
// main-memory RDF stores of §2.2.3) in one trie order, so a read merges
// a base range with a delta range, and every pattern enumerates in one
// order whatever the split.
//
// The delta is two sets of persistent tries (pmap.go): adds, triples
// written since the base was built, none of them in it, and dels,
// tombstones of base triples deleted since, each of them in it. A count
// is a base span plus adds minus tombstones, so CountMatch never
// enumerates. The base stores each predicate's distinct subjects and
// objects; stats keeps how far the delta moved them, so PredStats stays
// exact.
//
// States are published through an atomic pointer and never mutated
// after publication; writers derive a successor by structural sharing
// of the delta and swing the pointer. When the delta outgrows
// max(deltaCap, base/16) triples, publication folds it into a new base;
// a state already pinned keeps its own.
type graphState struct {
	base       *base // nil: none
	adds, dels tries
	stats      *pmNode[predDelta]
	size       int
	sealed     bool // published by Build: the graph is read-only
	// gen is the graph's mutation counter at the moment this state was
	// published; a pinned snapshot reports it as its (stable) generation.
	gen uint64
}

// predDelta is how far the delta moved a predicate's distinct counts.
type predDelta struct{ subjects, objects int32 }

// deltaCap is the delta size below which publication never compacts.
// Tests lower it so that short write sequences reach a base.
var deltaCap = 1 << 16

var emptyGraphState = &graphState{}

func (st *graphState) has(s, p, o ID) bool {
	return st.adds.has(s, p, o) || st.base.has(s, p, o) && !st.dels.has(s, p, o)
}

// count is the number of the state's triples matching a pattern: the
// base's span, plus the adds, minus the tombstones.
func (st *graphState) count(s, p, o ID) int {
	k, key, n := perm(s, p, o)
	switch n {
	case 0:
		return st.size
	case 3:
		if st.has(s, p, o) {
			return 1
		}
		return 0
	}
	mid := idxGet(st.adds.idx[k], key.S)
	c := mid.triples()
	if n == 2 {
		c = mid.get(key.P).len()
	}
	if st.base != nil {
		_, lo, hi := st.base.span(k, key, n)
		c += hi - lo - idxGet(st.dels.idx[k], key.S).count(key.P)
	}
	return c
}

// perm returns the permutation a pattern's bound positions lead (0 SPO,
// 1 POS, 2 OSP), the pattern turned to it (turn), and n, how many lead.
func perm(s, p, o ID) (k int, key Triple, n int) {
	switch {
	case s == 0 && p != 0:
		return 1, Triple{p, o, 0}, 1 + min(int(o), 1)
	case p == 0 && o != 0:
		return 2, Triple{o, s, 0}, 1 + min(int(s), 1)
	case s != 0:
		return 0, Triple{s, p, o}, 1 + min(int(p), 1) + min(int(o), 1)
	}
	return 0, Triple{}, 0
}

// merged returns a state holding st's triples and log's — sorted in trie
// order, distinct, none of them in st — as a base alone: one linear
// merge of st's SPO enumeration with log, laid out by fill. With an
// empty log it is compaction.
func (st *graphState) merged(log []Triple) *graphState {
	n := st.size + len(log)
	ts := make([]Triple, 0, n)
	st.match(nil, 0, 0, 0, func(t Triple) bool {
		i := 0
		for i < len(log) && before(log[i], t, 3) {
			i++
		}
		ts, log = append(append(ts, log[:i]...), t), log[i:]
		return true
	})
	b := new(base)
	b.fill(append(ts, log...), make([]Triple, n))
	return &graphState{base: b, size: n}
}

// spilled reports whether st's delta is past the size at which
// publication folds it into a new base.
func (st *graphState) spilled() bool {
	// The base holds size - adds + dels triples.
	return st.adds.n+st.dels.n > max(deltaCap, (st.size-st.adds.n+st.dels.n)/16)
}

// tries is one side of a delta: the three index permutations of one
// set of triples as persistent tries (pmap.go), idx[k] keyed by each
// triple turned k places (turn), and its size.
type tries struct {
	idx [3]*pmNode[*pmid]
	n   int
}

func (d *tries) has(s, p, o ID) bool {
	return d.n != 0 && idxGet(d.idx[0], s).get(p).has(o)
}

// edit inserts (s, p, o), or with add false removes it, in place (the
// state must be a private, not-yet-published copy); tag is the writer's
// edit tag (pmap.go). It reports whether the tries changed.
func (d *tries) edit(tag uint32, s, p, o ID, add bool) bool {
	apply, by := idxDel, -1
	if add {
		apply, by = idxAdd, 1
	}
	for k := range d.idx {
		t, done := turn(Triple{s, p, o}, k), false
		// Only SPO refuses: the other two hold what it holds.
		if d.idx[k], done = apply(d.idx[k], tag, t.S, t.P, t.O); !done {
			return false
		}
	}
	d.n += by
	return true
}

// dict is the term dictionary: an append-only terms array plus a
// mutex-guarded identity index (identity.go). Readers are lock-free: n
// counts the terms, and the slice header is republished only when
// append moves the array or rebind copies it, so a reader loads n first
// and may then index any header it finds up to n (IDs are never reused,
// and an entry below n is never rewritten in place, short of
// Graph.Reset). The dictionary is shared between a live graph, its
// snapshots, and its post-Clear states.
type dict struct {
	mu    sync.RWMutex
	index termIndex
	terms atomic.Pointer[[]Term]
	n     atomic.Int64
	bytes atomic.Int64

	// num memoizes per-ID numeric coercions (numcache.go) so batch
	// aggregation can SUM/AVG dictionary-resident literals without
	// re-decoding the term on every row.
	num numCache
}

// termOverheadBytes approximates the fixed per-entry dictionary cost
// beyond the term's text: the terms-slice element (an interface header,
// 16 B), the boxed term value (a string header for an IRI or a blank,
// 16 B; 8 B for a number, 32 B for a two-string literal) and the entry's
// share of the identity table (an 8 B slot, 3/8 to 3/4 of them used:
// 11–21 B, about 16).
const termOverheadBytes = 48

func newDict() *dict { return &dict{} }

func (d *dict) lookup(t Term) (ID, bool) {
	return d.find(probeOf(t))
}

// find is lookup with the term's probe already built.
func (d *dict) find(p probe) (ID, bool) {
	d.mu.RLock()
	id := d.index.get(p, d.all())
	d.mu.RUnlock()
	return id, id != 0
}

// all returns the terms, the one at ID i at i-1.
func (d *dict) all() []Term {
	if p := d.terms.Load(); p != nil {
		return (*p)[:d.n.Load()]
	}
	return nil
}

// intern returns the ID for a term, assigning a fresh one when new
// (the bool reports a fresh assignment). The term is hashed once, for
// the lookup under the read lock and the one under the write lock.
func (d *dict) intern(t Term) (ID, bool) {
	p := probeOf(t)
	if id, ok := d.find(p); ok {
		return id, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	terms := d.all()
	if id := d.index.get(p, terms); id != 0 {
		return id, false
	}
	grown := append(terms, t)
	if cap(grown) != cap(terms) {
		moved := grown
		d.terms.Store(&moved)
	}
	id := ID(d.n.Add(1))
	d.index.put(p, id)
	d.bytes.Add(int64(textBytes(t, p.key)) + termOverheadBytes)
	return id, true
}

func (d *dict) termOf(id ID) Term {
	n := d.n.Load()
	if id == 0 || int64(id) > n {
		panic(fmt.Sprintf("rdf: invalid term ID %d", id))
	}
	return (*d.terms.Load())[:n][id-1]
}

// rebind binds each ids[i] to to[i], an array over the elements of the
// one it replaces, in one copy of the terms array, so a reader holding
// the old copy still reads the old term; index and bytes follow. Arrays
// are keyed by Key(), so only the index's key map changes.
func (d *dict) rebind(ids []ID, to []Term) {
	d.mu.Lock()
	defer d.mu.Unlock()
	terms := slices.Clone(d.all())
	for i, id := range ids {
		old, key, nkey := terms[id-1], terms[id-1].Key(), to[i].Key()
		delete(d.index.keyed, key)
		d.index.keyed[nkey] = id
		d.bytes.Add(int64(textBytes(to[i], nkey) - textBytes(old, key)))
		terms[id-1] = to[i]
	}
	d.terms.Store(&terms)
}

func (d *dict) len() int { return int(d.n.Load()) }

// reset empties the dictionary for Graph.Reset; past maxScratch terms it
// starts from nothing, so one large graph pins neither its terms array
// nor its table, nor makes each later reset clear them.
func (d *dict) reset() {
	if n := d.n.Load(); n > maxScratch {
		d.index = termIndex{}
		d.terms.Store(nil)
	} else if n > 0 {
		clear((*d.terms.Load())[:n])
	}
	clear(d.index.slots)
	clear(d.index.keyed)
	d.index.used, d.index.bools = 0, [2]ID{}
	d.n.Store(0)
	d.bytes.Store(0)
	d.num.table.Store(nil)
}

// Graph is an in-memory RDF-with-Arrays triple store with
// multi-version concurrency control: the triple content lives in an
// immutable graphState (a sorted base and a trie delta) reached through
// an atomic pointer, so readers are lock-free and see one version, while
// writers serialize and publish successors that share the base and most
// of the delta, folding a grown delta into a new base as they publish.
//
// A Graph is safe for concurrent use: any number of readers run in
// parallel with each other and with writers, without blocking either
// way. An enumeration (Match and everything built on it) iterates the
// state current when it started — a point-in-time snapshot: triples
// present for its whole duration are yielded exactly once, and
// concurrent (or callback-own) mutations are never observed mid-scan.
// Snapshot pins such a version explicitly; Begin opens a write
// transaction whose triples become visible atomically at Commit.
type Graph struct {
	dict  *dict
	state atomic.Pointer[graphState]

	// wmu serializes writers: transactions (held from Begin to
	// Commit/Abort), Clear, MoveArrays, Build and Reset.
	wmu sync.Mutex

	// frozen marks a Snapshot: writes panic, reads serve the pinned
	// state forever.
	frozen bool
	spare  *base // what Reset kept for the next Build; guarded by wmu
	// sortBuf is Build's sort buffer when sortSlot held another; guarded
	// by wmu.
	sortBuf *[]Triple

	// gen is a monotonic version counter bumped on every mutation that
	// could change what a compiled ID-based plan would see: a new
	// dictionary entry, a triple insert, or a triple delete. Plans that
	// bake interned IDs in at compile time key themselves on the
	// generation so a cached plan is never replayed against a graph it
	// was not compiled for.
	gen atomic.Uint64

	blankNo atomic.Int64
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	g := &Graph{dict: newDict()}
	g.state.Store(emptyGraphState)
	return g
}

func (g *Graph) cur() *graphState { return g.state.Load() }

// Stage returns an empty writable graph over g's dictionary, its blank
// counter at g's, whose triples a transaction on g takes by ID with
// Tx.AddGraph; what it interns stays in g's dictionary. Never Reset it.
func (g *Graph) Stage() *Graph {
	sg := &Graph{dict: g.dict}
	sg.state.Store(emptyGraphState)
	sg.blankNo.Store(g.BlankNo())
	return sg
}

// Snapshot pins the graph's current version: the returned Graph serves
// exactly the triples committed before the call, forever, without
// blocking or being blocked by writers to the parent. It shares the
// parent's dictionary (IDs and terms stay resolvable) and is itself
// read-only — mutating it panics. Snapshotting a snapshot returns it
// unchanged, and so does snapshotting a graph Build filled.
func (g *Graph) Snapshot() *Graph {
	if g.Frozen() {
		return g
	}
	st := g.cur()
	sg := &Graph{dict: g.dict, frozen: true}
	sg.state.Store(st)
	sg.gen.Store(st.gen)
	return sg
}

// Frozen reports whether this Graph is read-only: a pinned snapshot, or
// a graph Build filled.
func (g *Graph) Frozen() bool { return g.frozen || g.cur().sealed }

func (g *Graph) checkWritable() {
	if g.Frozen() {
		panic("rdf: write on a read-only graph")
	}
}

// Size returns the number of triples.
func (g *Graph) Size() int {
	return g.cur().size
}

// Generation returns the graph's mutation counter. Two calls returning
// the same value bracket a window with no dictionary growth, inserts,
// or deletes — the validity condition for replaying a compiled ID
// plan. A snapshot's generation is fixed at pin time.
func (g *Graph) Generation() uint64 {
	return g.gen.Load()
}

// DictStats describes one dictionary: how many terms it interns, the
// approximate bytes it occupies, and the owning graph's generation.
type DictStats struct {
	Terms      int
	Bytes      int64
	Generation uint64
}

// DictStats returns the graph's dictionary statistics.
func (g *Graph) DictStats() DictStats {
	return DictStats{Terms: g.dict.len(), Bytes: g.dict.bytes.Load(), Generation: g.Generation()}
}

// Intern maps a term to its dictionary ID, assigning a fresh one when
// the term is new.
func (g *Graph) Intern(t Term) ID {
	id, fresh := g.dict.intern(t)
	if fresh {
		g.gen.Add(1)
	}
	return id
}

// Lookup returns the ID of a term if it is already interned.
func (g *Graph) Lookup(t Term) (ID, bool) {
	return g.dict.lookup(t)
}

// lookup3 returns the IDs of three terms, or false when any of them is
// not interned.
func (g *Graph) lookup3(s, p, o Term) (si, pi, oi ID, ok bool) {
	if si, ok = g.dict.lookup(s); !ok {
		return
	}
	if pi, ok = g.dict.lookup(p); !ok {
		return
	}
	oi, ok = g.dict.lookup(o)
	return
}

// TermOf returns the term for a dictionary ID. IDs are never reused
// (short of Reset), so a term obtained from any enumeration remains
// resolvable — even through Clear and on snapshots.
func (g *Graph) TermOf(id ID) Term {
	return g.dict.termOf(id)
}

// NewBlank allocates a blank node unique within this graph.
func (g *Graph) NewBlank() Blank {
	return Blank(fmt.Sprintf("g%d", g.blankNo.Add(1)))
}

// BlankNo returns the blank-node counter — persisted by checkpoints so
// recovery never re-mints a label already used by logged triples.
func (g *Graph) BlankNo() int64 { return g.blankNo.Load() }

// EnsureBlankNo raises the blank-node counter to at least n; recovery
// and staged loads use it so freshly minted labels never collide with
// ones already present.
func (g *Graph) EnsureBlankNo(n int64) {
	for {
		cur := g.blankNo.Load()
		if cur >= n || g.blankNo.CompareAndSwap(cur, n) {
			return
		}
	}
}

// publish installs st as the next version, stamping it with a fresh
// generation; a delta past its cap is compacted into a new base first.
// Caller holds wmu.
func (g *Graph) publish(st *graphState) {
	if st.spilled() {
		st = st.merged(nil)
	}
	st.gen = g.gen.Add(1)
	g.state.Store(st)
}

// add inserts into a state in place (the state must be a private,
// not-yet-published copy); tag is the writer's edit tag (pmap.go). A
// base triple comes back by losing its tombstone, any other goes to the
// adds.
func (st *graphState) add(tag uint32, s, p, o ID) bool {
	if st.base.has(s, p, o) {
		if !st.dels.edit(tag, s, p, o, false) {
			return false
		}
	} else if !st.adds.edit(tag, s, p, o, true) {
		return false
	}
	st.size++
	st.restat(tag, s, p, o, 1)
	return true
}

// del removes from a state in place (same contract as add): an added
// triple leaves the adds, a base triple gains a tombstone.
func (st *graphState) del(tag uint32, s, p, o ID) bool {
	if !st.adds.edit(tag, s, p, o, false) && !(st.base.has(s, p, o) && st.dels.edit(tag, s, p, o, true)) {
		return false
	}
	st.size--
	st.restat(tag, s, p, o, -1)
	return true
}

// restat moves p's distinct-subject (-object) count by d when (s, p, o),
// just added (d = 1) or removed (d = -1), was its (s, p) ((p, o)) pair's
// first or last triple.
func (st *graphState) restat(tag uint32, s, p, o ID, d int32) {
	var was predDelta
	if sl := pmFind(st.stats, uint32(p)); sl != nil {
		was = sl.val
	}
	m := was
	if st.count(s, p, 0) == int(max(d, 0)) {
		m.subjects += d
	}
	if st.count(0, p, o) == int(max(d, 0)) {
		m.objects += d
	}
	switch {
	case m == was:
	case m == predDelta{}:
		st.stats, _ = pmDel(st.stats, tag, 0, uint32(p))
	default:
		st.stats, _ = pmSet(st.stats, tag, 0, pmSlot[predDelta]{key: uint32(p), val: m})
	}
}

// Clear atomically removes every triple, returning how many there
// were. The dictionary is retained: interned IDs stay resolvable (for
// concurrent readers pinned to older versions) and are never reused.
func (g *Graph) Clear() int {
	g.checkWritable()
	g.wmu.Lock()
	defer g.wmu.Unlock()
	old := g.cur()
	if old.size == 0 {
		return 0
	}
	g.publish(&graphState{})
	return old.size
}

// MoveArrays rebinds the ID of every resident array a triple holds as
// its object to the array move returns for it, which must hold the same
// elements: move runs once per ID, however many triples share it, no
// triple changes, and the terms array is copied once, so the resident
// elements are freed once no reader holds the old copy. It returns how
// many triples' objects moved; when move fails, what moved stays moved.
// move runs with g's writers blocked, so it must not write to g.
func (g *Graph) MoveArrays(move func(*array.Array) (*array.Array, error)) (moved int, err error) {
	g.checkWritable()
	g.wmu.Lock()
	defer g.wmu.Unlock()
	st := g.cur()
	var ids []ID
	var to []Term
	for id := ID(1); int(id) <= g.dict.len() && err == nil; id++ {
		at, ok := g.TermOf(id).(Array)
		if !ok || !at.A.Base.Resident() || st.count(0, 0, id) == 0 {
			continue
		}
		if at.A, err = move(at.A); err == nil {
			ids, to = append(ids, id), append(to, at)
			moved += st.count(0, 0, id)
		}
	}
	if len(ids) > 0 {
		g.dict.rebind(ids, to)
		g.gen.Add(1)
	}
	return moved, err
}

// Has reports whether the triple is present.
func (g *Graph) Has(s, p, o Term) bool {
	si, pi, oi, ok := g.lookup3(s, p, o)
	return ok && g.cur().has(si, pi, oi)
}

// OpKind discriminates the physical mutation operations a write
// transaction records for the write-ahead log.
type OpKind uint8

// The physical operation kinds: triple insert and triple delete.
const (
	OpAdd OpKind = iota
	OpDelete
)

// Op is one recorded physical mutation: an insert or delete of a triple
// of the transaction's graph's IDs, exactly as applied. Replaying a
// transaction's ops in order against the same starting state reproduces
// its effect deterministically (IDs are never reused).
type Op struct {
	Kind    OpKind
	S, P, O ID
}

// Tx is a write transaction: a batch of Add/Delete calls that becomes
// visible to readers atomically at Commit. The writer lock is held
// from Begin until Commit or Abort, so transactions serialize among
// themselves; readers are never blocked. With recording enabled, the
// transaction collects the effective (state-changing) operations for
// the write-ahead log.
//
// Adds go into the staged delta's tries unless Commit would build a base
// anyway — the staged state is empty, or its delta is past the size at
// which publication compacts it. Then they go to a flat log of IDs, and
// Commit merges the sorted log with the staged state into one new base.
// A Delete folds a pending log into the staged state first.
type Tx struct {
	g    *Graph
	st   graphState
	tag  uint32 // edit tag: nodes carrying it are this transaction's to write
	done bool

	record bool
	ops    []Op

	// changed counts effective mutations (adds that inserted, deletes
	// that removed).
	changed int

	// log holds the adds past the spill: its first settled rows sorted
	// in trie order, distinct, none of them in st, and counted and
	// recorded; the rest as written.
	log     []Triple
	settled int
}

// txTags is the process-wide source of edit tags. It saturates: a tag
// is never handed out twice, and once exhausted every transaction gets
// tag 0, which owns nothing, so its edits are plain path copies.
var txTags atomic.Uint32

// Begin opens a write transaction. The caller must end it with Commit
// or Abort; until then all other writers block.
func (g *Graph) Begin() *Tx {
	g.checkWritable()
	g.wmu.Lock()
	tag := txTags.Load() // at the ceiling, tag+1 below wraps to 0
	for tag != math.MaxUint32 && !txTags.CompareAndSwap(tag, tag+1) {
		tag = txTags.Load()
	}
	return &Tx{g: g, st: *g.cur(), tag: tag + 1}
}

// Record enables (or disables) operation recording for Ops.
func (t *Tx) Record(on bool) { t.record = on }

// Ops returns the effective operations recorded so far (only with
// Record(true)); the slice is owned by the transaction until Commit.
// Replayed in order on the state at Begin, they give the staged state;
// the adds of one log come in trie order, not as written.
func (t *Tx) Ops() []Op { t.settle(); return t.ops }

// Changed returns the number of effective mutations staged so far.
func (t *Tx) Changed() int { t.settle(); return t.changed }

// Size returns the staged triple count (as it will be after Commit).
func (t *Tx) Size() int { t.settle(); return t.st.size + len(t.log) }

// Add stages a triple insert. Whether it changes anything shows in
// Changed.
func (t *Tx) Add(s, p, o Term) {
	t.AddIDs(t.g.Intern(s), t.g.Intern(p), t.g.Intern(o))
}

// AddGraph stages every triple of src, a Stage of the transaction's
// graph (any other dictionary panics), by ID. Into an empty transaction
// src's version is taken whole; only the recorded ops walk it.
func (t *Tx) AddGraph(src *Graph) {
	if src.dict != t.g.dict {
		panic("rdf: AddGraph from a graph over another dictionary")
	}
	st, add := src.cur(), t.AddIDs
	if t.st.size == 0 && len(t.log) == 0 {
		t.st, t.st.sealed, add = *st, false, t.added
		if t.record {
			t.ops = slices.Grow(t.ops, st.size)
		}
	}
	st.match(nil, 0, 0, 0, func(tr Triple) bool {
		add(tr.S, tr.P, tr.O)
		return true
	})
}

// AddIDs is Add for a triple of IDs the transaction's graph interned
// (Graph.Intern), so a reader that interns each of its terms once stages
// a repeated one without a dictionary lookup. An add goes to the log
// once Commit would build a base anyway: the staged state holds
// nothing to merge, or its delta is past publication's cap. A full log
// of 256 rows or more doubles, where append would grow a large one by a
// quarter at a time and copy it about five times over.
func (t *Tx) AddIDs(s, p, o ID) {
	if t.st.size == 0 || t.st.spilled() {
		if len(t.log) == cap(t.log) && cap(t.log) >= 256 {
			t.log = append(make([]Triple, 0, 2*cap(t.log)), t.log...)
		}
		t.log = append(t.log, Triple{s, p, o})
	} else if t.st.add(t.tag, s, p, o) {
		t.added(s, p, o)
	}
}

// added counts an effective add and records it.
func (t *Tx) added(s, p, o ID) {
	t.changed++
	if t.record {
		t.ops = append(t.ops, Op{Kind: OpAdd, S: s, P: p, O: o})
	}
}

// settle sorts the log's unsettled rows, drops those already staged —
// in st, in the settled rows or repeated — counts and records the rest,
// and merges them into the settled rows.
func (t *Tx) settle() {
	if t.settled == len(t.log) {
		return
	}
	tmp := make([]Triple, len(t.log))
	n := t.settled
	for _, tr := range sortedSet(t.log[n:], tmp) {
		if i := sort.Search(t.settled, func(i int) bool { return !before(t.log[i], tr, 3) }); i < t.settled && t.log[i] == tr || t.st.has(tr.S, tr.P, tr.O) {
			continue
		}
		t.log[n] = tr
		n++
		t.added(tr.S, tr.P, tr.O)
	}
	if t.log = t.log[:n]; t.settled != 0 {
		sortTrie(t.log, tmp, 0)
	}
	t.settled = n
}

// staged settles the log and returns the state Commit would publish.
func (t *Tx) staged() *graphState {
	if t.settle(); len(t.log) != 0 {
		return t.st.merged(t.log)
	}
	st := t.st
	return &st
}

// Delete stages a triple removal; false when absent from the staged
// state.
func (t *Tx) Delete(s, p, o Term) bool {
	si, pi, oi, ok := t.g.lookup3(s, p, o)
	if !ok || !t.deleteIDs(si, pi, oi) {
		return false
	}
	if t.record {
		t.ops = append(t.ops, Op{Kind: OpDelete, S: si, P: pi, O: oi})
	}
	return true
}

// deleteIDs is Delete for a triple of interned IDs, unrecorded. A
// pending log is folded into the staged state first.
func (t *Tx) deleteIDs(s, p, o ID) bool {
	if len(t.log) != 0 {
		t.st, t.log, t.settled = *t.staged(), t.log[:0], 0
	}
	if !t.st.del(t.tag, s, p, o) {
		return false
	}
	t.changed++
	return true
}

// Commit publishes the staged state: all of the transaction's changes
// become visible to new readers at once.
func (t *Tx) Commit() {
	if t.done {
		return
	}
	t.done = true
	if st := t.staged(); t.changed > 0 {
		t.g.publish(st)
	}
	t.g.wmu.Unlock()
}

// Abort discards the staged state; the graph is left exactly as it was
// at Begin.
func (t *Tx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.g.wmu.Unlock()
}

// setPos returns t with the pos-th component (0=S, 1=P, 2=O) set.
func setPos(t Triple, pos int, v ID) Triple {
	switch pos {
	case 0:
		t.S = v
	case 1:
		t.P = v
	default:
		t.O = v
	}
	return t
}

// ctxCheckEvery bounds how many triples are yielded between context
// polls during long enumerations, so cancellation is honored promptly
// without paying a ctx.Err per triple.
const ctxCheckEvery = 1024

// ctxDone reports whether a (possibly nil) context has been cancelled.
func ctxDone(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// Match enumerates triples matching a pattern where ID 0 is a
// wildcard. The callback returns false to stop early. The index
// permutation is chosen from the bound positions.
//
// The enumeration runs against the immutable state current when it
// started, without taking any lock: the callback may freely re-enter
// the graph — including mutating it — and concurrent writers proceed
// unhindered; neither affects what this enumeration yields (see the
// Graph type comment for the consistency contract).
func (g *Graph) Match(s, p, o ID, yield func(Triple) bool) {
	g.MatchCtx(nil, s, p, o, yield)
}

// MatchCtx is Match with cooperative cancellation: the context is
// polled at bounded intervals and the enumeration stops early when it
// is done. A nil context imposes nothing. The truncated enumeration is
// not an error at this layer; callers that care (the query engine's
// guards) detect the cancellation themselves.
func (g *Graph) MatchCtx(ctx context.Context, s, p, o ID, yield func(Triple) bool) {
	g.cur().match(ctx, s, p, o, yield)
}

// match is the one pattern → index table: every read of a state's
// triples — tuple, batch or append — goes through it. It merges the
// base's rows for the pattern with the delta's adds, both in the order
// of the permutation the pattern's bound positions lead; when either
// side has none, it walks the other alone.
func (st *graphState) match(ctx context.Context, s, p, o ID, yield func(Triple) bool) {
	k, key, n := perm(s, p, o)
	var m merge // set field by field: a literal would be built aside and copied in
	m.ctx, m.baseRows, m.back, m.dels = ctx, st.base.rows(k, key, n), (3-k)%3, &st.dels
	switch {
	case m.lo == m.hi:
		st.adds.walk(&m.walker, k, key, n, yield)
	case st.adds.n == 0:
		m.upto(Triple{}, true, yield)
	case st.adds.walk(&m.walker, k, key, n, func(t Triple) bool {
		return m.upto(turn(t, k), false, yield) && yield(t)
	}):
		m.upto(Triple{}, true, yield)
	}
}

// walk yields the tries' triples under key's first n components (perm),
// in the trie order of permutation k; false once the enumeration is over.
func (d *tries) walk(w *walker, k int, key Triple, n int, yield func(Triple) bool) bool {
	pat := turn(key, (3-k)%3)
	switch n {
	case 0:
		return w.top(d.idx[0], yield)
	case 1:
		return w.mid(idxGet(d.idx[k], key.S), pat, (k+1)%3, (k+2)%3, yield)
	case 2:
		return w.set(idxGet(d.idx[k], key.S).get(key.P), pat, (k+2)%3, yield)
	}
	return !d.has(pat.S, pat.P, pat.O) || yield(pat)
}

// walker is one enumeration: it yields triples until yield says stop or
// the context (nil: none) is done. Its methods return false once the
// enumeration is over. (yield is an argument, not a field: a func
// called through a pointer escapes to the heap.)
type walker struct {
	ctx context.Context
	n   int
}

// merge is a walker over base rows, each rebuilt as (key, a, b) and
// turned back places to (s, p, o), yielded between the delta's adds,
// tombstoned ones skipped.
type merge struct {
	walker
	baseRows
	back int
	dels *tries
}

// upto yields the rows that sort before t, a triple turned as the rows
// are, or with last every row left. It walks them in locals and stores
// them back on the way out: fields read through m would be loaded again
// after every yield.
func (m *merge) upto(t Triple, last bool, yield func(Triple) bool) bool {
	b, k, d, lo, more := m.b, m.k, m.d, m.lo, true
	rows := &b.runs[k]
rows:
	for ; lo < m.hi; d++ {
		for key, stop := ID(b.keys[k].at(d)), min(int(b.starts[k].at(d+1)), m.hi); lo < stop; lo++ {
			x := Triple{S: key}
			if x.P, x.O = b.ids(k, rows.at(lo)); !last && !before(x, t, 3) {
				break rows
			}
			if x = turn(x, m.back); m.dels.n != 0 && m.dels.has(x.S, x.P, x.O) {
				continue
			}
			if !yield(x) || m.ctx != nil && m.cancelled() {
				more = false
				break rows
			}
		}
	}
	m.d, m.lo = d, lo
	return more
}

// set yields a bound-pair pattern: the members of one innermost set —
// the inline one, or the trie's — each put into base's open position.
func (w *walker) set(set idset, base Triple, fillPos int, yield func(Triple) bool) bool {
	if set.set == nil {
		if set.one == 0 {
			return true
		}
		return yield(setPos(base, fillPos, set.one)) && !(w.ctx != nil && w.cancelled())
	}
	var it pmIter[struct{}]
	for it.init(set.set.root); ; {
		sl := it.next()
		if sl == nil {
			return true
		}
		if !yield(setPos(base, fillPos, ID(sl.key))) || w.ctx != nil && w.cancelled() {
			return false
		}
	}
}

// cancelled counts a yielded triple and polls the context on every
// ctxCheckEvery-th. Callers test w.ctx first (with that test inside,
// the function is past the inlining budget): an enumeration without a
// context pays a branch per triple, not a call.
func (w *walker) cancelled() bool {
	w.n++
	return w.n%ctxCheckEvery == 0 && w.ctx.Err() != nil
}

// mid yields a single-bound pattern: every (middle key, set member)
// pair under one top-level entry.
func (w *walker) mid(mid *pmid, base Triple, outerPos, innerPos int, yield func(Triple) bool) bool {
	if mid == nil {
		return true
	}
	var it pmIter[*pset]
	for it.init(mid.root); ; {
		sl := it.next()
		if sl == nil {
			return true
		}
		if !w.set(slotSet(sl), setPos(base, outerPos, ID(sl.key)), innerPos, yield) {
			return false
		}
	}
}

// top yields the whole graph from the SPO permutation.
func (w *walker) top(root *pmNode[*pmid], yield func(Triple) bool) bool {
	var it pmIter[*pmid]
	for it.init(root); ; {
		sl := it.next()
		if sl == nil {
			return true
		}
		if !w.mid(sl.val, Triple{S: ID(sl.key)}, 1, 2, yield) {
			return false
		}
	}
}

// MatchTerms is Match with term-valued pattern positions; nil is a
// wildcard. Unknown terms match nothing.
func (g *Graph) MatchTerms(s, p, o Term, yield func(s, p, o Term) bool) {
	g.MatchTermsCtx(nil, s, p, o, yield)
}

// MatchTermsCtx is MatchTerms with the cooperative cancellation of
// MatchCtx.
func (g *Graph) MatchTermsCtx(ctx context.Context, s, p, o Term, yield func(s, p, o Term) bool) {
	var si, pi, oi ID
	var ok bool
	if s != nil {
		if si, ok = g.Lookup(s); !ok {
			return
		}
	}
	if p != nil {
		if pi, ok = g.Lookup(p); !ok {
			return
		}
	}
	if o != nil {
		if oi, ok = g.Lookup(o); !ok {
			return
		}
	}
	g.MatchCtx(ctx, si, pi, oi, func(t Triple) bool {
		return yield(g.TermOf(t.S), g.TermOf(t.P), g.TermOf(t.O))
	})
}

// CountMatch returns the number of triples matching a pattern without
// enumerating terms; it backs the optimizer's cardinality estimates.
// Every pattern class costs a base span and a couple of index lookups
// in the delta: no enumeration ever happens.
func (g *Graph) CountMatch(s, p, o ID) int {
	return g.cur().count(s, p, o)
}

// PredStats returns, for a predicate, the triple count and the numbers
// of distinct subjects and objects — the histogram-style statistics the
// cost-based optimizer uses (dissertation §5.4, cf. RDF-3X's indexes
// doubling as histograms, §2.3.1). The base stores the distinct counts
// and the delta how far its writes moved them, so all three are lookups
// and the join orderer can afford to call this on every BGP.
func (g *Graph) PredStats(p ID) (count, distinctS, distinctO int) {
	st := g.cur()
	if p == 0 {
		return 0, 0, 0
	}
	// count(0, p, 0), spelt out: the optimizer calls this per BGP.
	count = idxGet(st.adds.idx[1], p).triples()
	if b := st.base; b != nil {
		if d := b.find(1, p); d >= 0 {
			count += int(b.starts[1].at(d+1) - b.starts[1].at(d))
			distinctS, distinctO = int(b.preds[d].subjects), int(b.preds[d].objects)
		}
		count -= idxGet(st.dels.idx[1], p).triples()
	}
	if sl := pmFind(st.stats, uint32(p)); sl != nil {
		distinctS += int(sl.val.subjects)
		distinctO += int(sl.val.objects)
	}
	return count, distinctS, distinctO
}

// Triples enumerates all triples in unspecified order.
func (g *Graph) Triples(yield func(s, p, o Term) bool) {
	g.Match(0, 0, 0, func(t Triple) bool {
		return yield(g.TermOf(t.S), g.TermOf(t.P), g.TermOf(t.O))
	})
}

// Dataset is a collection of graphs: one default graph and any number
// of named graphs (dissertation §3.3.4). Like Graph, a Dataset is safe
// for concurrent use: graph lookups run under a read lock, and only
// creating or dropping a named graph takes the write lock.
type Dataset struct {
	mu      sync.RWMutex
	Default *Graph
	named   map[IRI]*Graph
}

// NewDataset creates a dataset with an empty default graph.
func NewDataset() *Dataset {
	return &Dataset{Default: NewGraph(), named: make(map[IRI]*Graph)}
}

// Named returns the named graph, creating it when create is true.
func (d *Dataset) Named(name IRI, create bool) *Graph {
	d.mu.RLock()
	g, ok := d.named[name]
	d.mu.RUnlock()
	if ok || !create {
		return g
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if g, ok := d.named[name]; ok {
		return g
	}
	g = NewGraph()
	d.named[name] = g
	return g
}

// DropNamed removes a named graph.
func (d *Dataset) DropNamed(name IRI) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.named, name)
}

// DictStats sums dictionary statistics over the default graph and all
// named graphs; Generation is the sum of the per-graph counters, so it
// changes whenever any member graph mutates.
func (d *Dataset) DictStats() DictStats {
	d.mu.RLock()
	graphs := make([]*Graph, 0, len(d.named)+1)
	graphs = append(graphs, d.Default)
	for _, g := range d.named {
		graphs = append(graphs, g)
	}
	d.mu.RUnlock()
	var total DictStats
	for _, g := range graphs {
		s := g.DictStats()
		total.Terms += s.Terms
		total.Bytes += s.Bytes
		total.Generation += s.Generation
	}
	return total
}

// GraphNames lists the names of all named graphs.
func (d *Dataset) GraphNames() []IRI {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]IRI, 0, len(d.named))
	for n := range d.named {
		out = append(out, n)
	}
	return out
}
