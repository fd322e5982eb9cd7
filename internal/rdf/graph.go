package rdf

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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

// graphState is one immutable version of a graph's triple content:
// three persistent index permutations (SPO, POS, OSP — every pattern
// with a bound position finds it leading one of them; the arrangement
// mirrors the indexing of main-memory RDF stores discussed in §2.2.3)
// and the triple count. States are published through an atomic pointer
// and never mutated after publication; writers derive a successor by
// structural sharing (pmap.go) and swing the pointer. Per-position
// cardinalities are not separate counters: each middle index level
// carries its subtree's triple total, so CountMatch/PredStats stay
// cheap. The one statistic no permutation carries is counted beside
// them: subjects maps a predicate to the number of distinct subjects it
// occurs with, kept in a persistent trie so pinned states stay exact.
type graphState struct {
	spo, pos, osp *pmNode[*pmid]
	subjects      *pmNode[int32]
	size          int
	// gen is the graph's mutation counter at the moment this state was
	// published; a pinned snapshot reports it as its (stable) generation.
	gen uint64
}

var emptyGraphState = &graphState{}

func (st *graphState) has(s, p, o ID) bool {
	return idxGet(st.spo, s).get(p).has(o)
}

// dict is the term dictionary: an append-only terms array plus a
// mutex-guarded identity index (identity.go). Readers are lock-free: n
// counts the terms, and the slice header is republished only when
// append moves the array, so a reader loads n first and may then index
// any header it finds up to n (IDs are never reused, and an entry below
// n is never rewritten). The dictionary is shared between a live graph,
// its snapshots, and its post-Clear states.
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
// beyond the term's text: the terms-slice element (interface header),
// the identity-index entry (a string header or the term's struct, the
// ID, a bucket share), and the boxed term value itself.
const termOverheadBytes = 64

func newDict() *dict { return &dict{} }

func (d *dict) lookup(t Term) (ID, bool) {
	return d.find(t, foreignKey(t))
}

// find is lookup with foreignKey(t) already built.
func (d *dict) find(t Term, key string) (ID, bool) {
	d.mu.RLock()
	id := d.index.get(t, key)
	d.mu.RUnlock()
	return id, id != 0
}

// intern returns the ID for a term, assigning a fresh one when new
// (the bool reports a fresh assignment).
func (d *dict) intern(t Term) (ID, bool) {
	key := foreignKey(t)
	if id, ok := d.find(t, key); ok {
		return id, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id := d.index.get(t, key); id != 0 {
		return id, false
	}
	var terms []Term
	if p := d.terms.Load(); p != nil {
		terms = (*p)[:d.n.Load()]
	}
	grown := append(terms, t)
	if cap(grown) != cap(terms) {
		moved := grown
		d.terms.Store(&moved)
	}
	id := ID(d.n.Add(1))
	d.index.put(t, key, id)
	d.bytes.Add(int64(textBytes(t, key)) + termOverheadBytes)
	return id, true
}

func (d *dict) termOf(id ID) Term {
	n := d.n.Load()
	if id == 0 || int64(id) > n {
		panic(fmt.Sprintf("rdf: invalid term ID %d", id))
	}
	return (*d.terms.Load())[:n][id-1]
}

func (d *dict) len() int { return int(d.n.Load()) }

// Graph is an in-memory RDF-with-Arrays triple store with
// multi-version concurrency control: the triple content lives in an
// immutable graphState reached through an atomic pointer, so readers
// are lock-free and always observe a consistent version, while writers
// serialize among themselves and publish successor states derived by
// structural sharing.
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

	// wmu serializes writers: bare Add/Delete, transactions (held from
	// Begin to Commit/Abort) and Clear.
	wmu sync.Mutex

	// frozen marks a Snapshot: writes panic, reads serve the pinned
	// state forever.
	frozen bool

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

// Snapshot pins the graph's current version: the returned Graph serves
// exactly the triples committed before the call, forever, without
// blocking or being blocked by writers to the parent. It shares the
// parent's dictionary (IDs and terms stay resolvable) and is itself
// read-only — mutating it panics. Snapshotting a snapshot returns it
// unchanged.
func (g *Graph) Snapshot() *Graph {
	if g.frozen {
		return g
	}
	st := g.cur()
	sg := &Graph{dict: g.dict, frozen: true}
	sg.state.Store(st)
	sg.gen.Store(st.gen)
	return sg
}

// Frozen reports whether this Graph is a pinned read-only snapshot.
func (g *Graph) Frozen() bool { return g.frozen }

func (g *Graph) checkWritable() {
	if g.frozen {
		panic("rdf: write on a pinned snapshot")
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

// TermOf returns the term for a dictionary ID. IDs are never reused,
// so a term obtained from any enumeration remains resolvable — even
// through Clear and on snapshots.
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
// generation. Caller holds wmu.
func (g *Graph) publish(st *graphState) {
	st.gen = g.gen.Add(1)
	g.state.Store(st)
}

// add inserts into a state in place (the state must be a private,
// not-yet-published copy); tag is the writer's edit tag (pmap.go).
func (st *graphState) add(tag uint32, s, p, o ID) bool {
	spo, added, fresh := idxAdd(st.spo, tag, s, p, o)
	if !added {
		return false
	}
	st.spo = spo
	st.pos, _, _ = idxAdd(st.pos, tag, p, o, s)
	st.osp, _, _ = idxAdd(st.osp, tag, o, s, p)
	if fresh {
		st.countSubject(tag, p, 1)
	}
	st.size++
	return true
}

// countSubject moves p's distinct-subject count by d: SPO has gained
// its first, or lost its last, triple for some (subject, p) pair.
func (st *graphState) countSubject(tag uint32, p ID, d int32) {
	if sl := pmFind(st.subjects, uint32(p)); sl != nil {
		d += sl.val
	}
	if d == 0 {
		st.subjects, _ = pmDel(st.subjects, tag, 0, uint32(p))
	} else {
		st.subjects, _ = pmSet(st.subjects, tag, 0, pmSlot[int32]{key: uint32(p), val: d})
	}
}

// del removes from a state in place (same contract as add).
func (st *graphState) del(tag uint32, s, p, o ID) bool {
	spo, removed, gone := idxDel(st.spo, tag, s, p, o)
	if !removed {
		return false
	}
	st.spo = spo
	st.pos, _, _ = idxDel(st.pos, tag, p, o, s)
	st.osp, _, _ = idxDel(st.osp, tag, o, s, p)
	if gone {
		st.countSubject(tag, p, -1)
	}
	st.size--
	return true
}

// Add inserts a triple of terms; it returns false when the triple was
// already present. The triple appears atomically to readers.
func (g *Graph) Add(s, p, o Term) bool {
	g.checkWritable()
	return g.addIDs(g.Intern(s), g.Intern(p), g.Intern(o))
}

// addIDs inserts a triple of already-interned IDs.
func (g *Graph) addIDs(s, p, o ID) bool {
	g.checkWritable()
	g.wmu.Lock()
	defer g.wmu.Unlock()
	st := *g.cur()
	if !st.add(0, s, p, o) {
		return false
	}
	g.publish(&st)
	return true
}

// Delete removes a triple; it returns false when it was absent.
func (g *Graph) Delete(s, p, o Term) bool {
	g.checkWritable()
	si, pi, oi, ok := g.lookup3(s, p, o)
	return ok && g.DeleteIDs(si, pi, oi)
}

// DeleteIDs removes a triple of interned IDs.
func (g *Graph) DeleteIDs(s, p, o ID) bool {
	g.checkWritable()
	g.wmu.Lock()
	defer g.wmu.Unlock()
	st := *g.cur()
	if !st.del(0, s, p, o) {
		return false
	}
	g.publish(&st)
	return true
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

// Op is one recorded physical mutation: the term-level form of an
// insert or delete, exactly as applied. Replaying a transaction's ops
// in order against the same starting state reproduces its effect
// deterministically (terms, not IDs, so the log is dictionary-independent).
type Op struct {
	Kind    OpKind
	S, P, O Term
}

// Tx is a write transaction: a batch of Add/Delete calls that becomes
// visible to readers atomically at Commit. The writer lock is held
// from Begin until Commit or Abort, so transactions serialize among
// themselves; readers are never blocked. With recording enabled, the
// transaction collects the effective (state-changing) operations in
// application order for the write-ahead log.
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
func (t *Tx) Ops() []Op { return t.ops }

// Changed returns the number of effective mutations staged so far.
func (t *Tx) Changed() int { return t.changed }

// Size returns the staged triple count (as it will be after Commit).
func (t *Tx) Size() int { return t.st.size }

// Add stages a triple insert; false when already present in the staged
// state.
func (t *Tx) Add(s, p, o Term) bool {
	return t.addIDs(t.g.Intern(s), t.g.Intern(p), t.g.Intern(o))
}

// addIDs is Add for a triple of already-interned IDs.
func (t *Tx) addIDs(s, p, o ID) bool {
	if !t.st.add(t.tag, s, p, o) {
		return false
	}
	t.changed++
	if t.record {
		t.ops = append(t.ops, Op{Kind: OpAdd, S: t.g.TermOf(s), P: t.g.TermOf(p), O: t.g.TermOf(o)})
	}
	return true
}

// Delete stages a triple removal; false when absent from the staged
// state.
func (t *Tx) Delete(s, p, o Term) bool {
	si, pi, oi, ok := t.g.lookup3(s, p, o)
	if !ok || !t.st.del(t.tag, si, pi, oi) {
		return false
	}
	t.changed++
	if t.record {
		t.ops = append(t.ops, Op{Kind: OpDelete, S: s, P: p, O: o})
	}
	return true
}

// Commit publishes the staged state: all of the transaction's changes
// become visible to new readers at once.
func (t *Tx) Commit() {
	if t.done {
		return
	}
	t.done = true
	if t.changed > 0 {
		st := t.st
		t.g.publish(&st)
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
// triples — tuple, batch or append — goes through it.
func (st *graphState) match(ctx context.Context, s, p, o ID, yield func(Triple) bool) {
	w := walker{ctx: ctx}
	switch {
	case s != 0 && p != 0 && o != 0:
		if st.has(s, p, o) {
			yield(Triple{s, p, o})
		}
	case s != 0 && p != 0:
		w.set(idxGet(st.spo, s).get(p), Triple{S: s, P: p}, 2, yield)
	case p != 0 && o != 0:
		w.set(idxGet(st.pos, p).get(o), Triple{P: p, O: o}, 0, yield)
	case s != 0 && o != 0:
		w.set(idxGet(st.osp, o).get(s), Triple{S: s, O: o}, 1, yield)
	case s != 0:
		w.mid(idxGet(st.spo, s), Triple{S: s}, 1, 2, yield)
	case p != 0:
		w.mid(idxGet(st.pos, p), Triple{P: p}, 2, 0, yield)
	case o != 0:
		w.mid(idxGet(st.osp, o), Triple{O: o}, 0, 1, yield)
	default:
		w.top(st.spo, yield)
	}
}

// walker is one enumeration: it yields triples until yield says stop or
// the context (nil: none) is done. Its methods return false once the
// enumeration is over. (yield is an argument, not a field: a func
// called through a pointer escapes to the heap.)
type walker struct {
	ctx context.Context
	n   int
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
func (w *walker) top(root *pmNode[*pmid], yield func(Triple) bool) {
	var it pmIter[*pmid]
	for it.init(root); ; {
		sl := it.next()
		if sl == nil || !w.mid(sl.val, Triple{S: ID(sl.key)}, 1, 2, yield) {
			return
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
// Every pattern class costs at most a couple of index lookups: the
// middle index levels carry their subtree totals, so no enumeration
// ever happens.
func (g *Graph) CountMatch(s, p, o ID) int {
	st := g.cur()
	switch {
	case s != 0 && p != 0 && o != 0:
		if st.has(s, p, o) {
			return 1
		}
		return 0
	case s != 0 && p != 0:
		return idxGet(st.spo, s).get(p).len()
	case p != 0 && o != 0:
		return idxGet(st.pos, p).get(o).len()
	case s != 0 && o != 0:
		return idxGet(st.osp, o).get(s).len()
	case s != 0:
		return idxGet(st.spo, s).triples()
	case p != 0:
		return idxGet(st.pos, p).triples()
	case o != 0:
		return idxGet(st.osp, o).triples()
	default:
		return st.size
	}
}

// PredStats returns, for a predicate, the triple count and the numbers
// of distinct subjects and objects — the histogram-style statistics the
// cost-based optimizer uses (dissertation §5.4, cf. RDF-3X's indexes
// doubling as histograms, §2.3.1). All three are index lookups, so the
// join orderer can afford to call this on every BGP.
func (g *Graph) PredStats(p ID) (count, distinctS, distinctO int) {
	st := g.cur()
	pos := idxGet(st.pos, p)
	if sl := pmFind(st.subjects, uint32(p)); sl != nil {
		distinctS = int(sl.val)
	}
	return pos.triples(), distinctS, pos.keys()
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
