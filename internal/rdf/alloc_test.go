package rdf

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// TestBoundProbeAllocFree pins the fully-bound fast path at zero
// allocations, over the tries and over a base: a bound probe is a
// lookup, not a scan.
func TestBoundProbeAllocFree(t *testing.T) {
	for _, g := range []*Graph{deltaGraph(1000), benchGraph(1000)} {
		boundProbeAllocFree(t, g)
	}
}

func boundProbeAllocFree(t *testing.T, g *Graph) {
	s, _ := g.Lookup(IRI("http://ex/s500"))
	p, _ := g.Lookup(IRI("http://ex/val"))
	o, _ := g.Lookup(Integer(0))
	st, _ := g.Lookup(IRI("http://ex/type"))
	th, _ := g.Lookup(IRI("http://ex/Thing"))
	if avg := testing.AllocsPerRun(100, func() {
		found := false
		g.Match(s, p, o, func(Triple) bool { found = true; return true })
		if !found {
			t.Error("lost triple")
		}
	}); avg != 0 {
		t.Fatalf("bound Match allocates %.1f per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if !g.Has(IRI("http://ex/s500"), IRI("http://ex/type"), IRI("http://ex/Thing")) {
			t.Error("lost triple")
		}
	}); avg != 0 { // term->ID lookups are keyed by the terms' own text
		t.Fatalf("Has allocates %.1f per run, want 0", avg)
	}
	_ = st
	_ = th
}

// TestEarlyTerminationAllocBounded is the regression test for the
// ASK / LIMIT 1 / EXISTS pathology: a wildcard Match stopped after the
// first triple must not materialize the whole graph. Buffers come from
// pools, so the steady-state allocation count is a small constant
// independent of graph size.
func TestEarlyTerminationAllocBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	for _, g := range []*Graph{deltaGraph(5000), benchGraph(5000)} { // 10000 triples
		earlyTerminationAllocBounded(t, g)
	}
}

func earlyTerminationAllocBounded(t *testing.T, g *Graph) {
	p, _ := g.Lookup(IRI("http://ex/val"))

	// Warm the buffer pools so the measurement sees steady state.
	g.Match(0, 0, 0, func(Triple) bool { return false })
	g.Match(0, p, 0, func(Triple) bool { return false })

	const maxAllocs = 4.0
	if avg := testing.AllocsPerRun(50, func() {
		n := 0
		g.Match(0, 0, 0, func(Triple) bool { n++; return false })
		if n != 1 {
			t.Errorf("yielded %d, want 1", n)
		}
	}); avg > maxAllocs {
		t.Fatalf("early-terminated wildcard Match allocates %.1f per run, want <= %.0f (graph has 10000 triples)", avg, maxAllocs)
	}

	if avg := testing.AllocsPerRun(50, func() {
		n := 0
		g.Match(0, p, 0, func(Triple) bool { n++; return false })
		if n != 1 {
			t.Errorf("yielded %d, want 1", n)
		}
	}); avg > maxAllocs {
		t.Fatalf("early-terminated predicate Match allocates %.1f per run, want <= %.0f", avg, maxAllocs)
	}
}

// TestCountMatchConstant cross-checks the O(1) per-position counters
// against actual matches, including after deletions — over the tries,
// and over a base the deletions put tombstones in.
func TestCountMatchConstant(t *testing.T) {
	for _, compacted := range []bool{false, true} {
		countMatchConstant(t, compacted)
	}
}

func countMatchConstant(t *testing.T, compacted bool) {
	g := NewGraph()
	p1t, p2t := IRI("http://ex/p1"), IRI("http://ex/p2")
	s1t, s2t := IRI("http://ex/a"), IRI("http://ex/b")
	addTriple(g, s1t, p1t, Integer(1))
	addTriple(g, s1t, p2t, Integer(2))
	addTriple(g, s2t, p1t, Integer(1))
	addTriple(g, s2t, p1t, Integer(3))
	if compacted {
		compact(g)
	}

	id := func(t2 Term) ID {
		i, _ := g.Lookup(t2)
		return i
	}
	s1, s2, p1 := id(s1t), id(s2t), id(p1t)
	o1 := id(Integer(1))

	check := func(s, p, o ID, want int) {
		t.Helper()
		if got := g.CountMatch(s, p, o); got != want {
			t.Errorf("CountMatch(%d,%d,%d) = %d, want %d", s, p, o, got, want)
		}
		// The counter must agree with an actual enumeration.
		n := 0
		g.Match(s, p, o, func(Triple) bool { n++; return true })
		if n != want {
			t.Errorf("Match(%d,%d,%d) yielded %d, want %d", s, p, o, n, want)
		}
	}
	check(s1, 0, 0, 2)
	check(0, p1, 0, 3)
	check(0, 0, o1, 2)
	check(0, 0, 0, 4)

	deleteTriple(g, s2t, p1t, Integer(3))
	check(0, p1, 0, 2)
	check(s2, 0, 0, 1)

	deleteTriple(g, s2t, p1t, Integer(1))
	check(s2, 0, 0, 0)
	check(0, 0, o1, 1)

	if n, fanOut, distinct := g.PredStats(p1); n != 1 || fanOut != 1 || distinct != 1 {
		t.Errorf("PredStats(p1) = %d,%d,%d, want 1,1,1", n, fanOut, distinct)
	}

	// Counters must stay O(1)-consistent through a mixed workload.
	for i := 0; i < 50; i++ {
		addTriple(g, IRI(fmt.Sprintf("http://ex/m%d", i%7)), p1t, Integer(int64(i)))
	}
	for i := 0; i < 50; i += 2 {
		deleteTriple(g, IRI(fmt.Sprintf("http://ex/m%d", i%7)), p1t, Integer(int64(i)))
		if compacted && i == 24 {
			compact(g)
		}
	}
	n := 0
	g.Match(0, p1, 0, func(Triple) bool { n++; return true })
	if got := g.CountMatch(0, p1, 0); got != n {
		t.Fatalf("CountMatch(p1) = %d, enumeration says %d", got, n)
	}
}

// TestGuardMergedReadAllocFree: a read over a base with delta adds and
// tombstones merges the two in place — Match of every shape, MatchIDs,
// MatchAppend, HasIDs and CountMatch allocate nothing.
func TestGuardMergedReadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not meaningful")
	}
	g := benchGraph(500)
	for i := 0; i < 500; i += 10 {
		deleteTriple(g, IRI(fmt.Sprintf("http://ex/s%d", i)), IRI("http://ex/val"), Integer(int64(i%100)))
		addTriple(g, IRI(fmt.Sprintf("http://ex/s%d", i)), IRI("http://ex/val"), Integer(-1))
	}
	if st := g.cur(); st.base.n == 0 || st.adds.n == 0 || st.dels.n == 0 {
		t.Fatalf("base %d rows, adds %d, tombstones %d: want all three", st.base.n, st.adds.n, st.dels.n)
	}
	s, _ := g.Lookup(IRI("http://ex/s10"))
	p, _ := g.Lookup(IRI("http://ex/val"))
	o, _ := g.Lookup(Integer(-1))
	dst := &TripleBatch{S: make([]ID, 0, 1024), P: make([]ID, 0, 1024), O: make([]ID, 0, 1024)}
	reads := map[string]func(){
		"Match": func() {
			for shape := range 8 {
				var pat Triple
				if shape&1 != 0 {
					pat.S = s
				}
				if shape&2 != 0 {
					pat.P = p
				}
				if shape&4 != 0 {
					pat.O = o
				}
				g.Match(pat.S, pat.P, pat.O, func(Triple) bool { return true })
			}
		},
		"MatchIDs":    func() { g.MatchIDs(nil, 0, p, 0, 64, func(_, _, _ []ID) bool { return true }) },
		"MatchAppend": func() { dst.Reset(); g.MatchAppend(0, p, o, dst); g.MatchAppend(s, 0, 0, dst) },
		"HasIDs": func() {
			if !g.HasIDs(s, p, o) {
				t.Error("lost an added triple")
			}
		},
		"CountMatch": func() {
			if n := g.CountMatch(0, p, 0); n != 500 {
				t.Errorf("CountMatch = %d, want 500", n)
			}
		},
	}
	for name, read := range reads {
		read() // warm the pools
		if avg := testing.AllocsPerRun(50, read); avg != 0 {
			t.Errorf("%s over a base, adds and tombstones allocates %.1f times per run, want 0", name, avg)
		}
	}
}

// txBytesPerTriple runs one transaction adding the triples
// (s<i/perSubj>, p<i%perSubj>, i) for i in [from, to) and returns the
// bytes it allocated per triple, term interning excluded (the terms are
// interned beforehand).
func txBytesPerTriple(t *testing.T, g *Graph, from, to int) float64 {
	t.Helper()
	const perSubj = 10
	ids := make([]Triple, 0, to-from)
	for i := from; i < to; i++ {
		ids = append(ids, Triple{
			S: g.Intern(IRI(fmt.Sprintf("http://ex/s%d", i/perSubj))),
			P: g.Intern(IRI(fmt.Sprintf("http://ex/p%d", i%perSubj))),
			O: g.Intern(Integer(int64(i))),
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tx := g.Begin()
	for _, tr := range ids {
		tx.AddIDs(tr.S, tr.P, tr.O)
	}
	tx.Commit()
	runtime.ReadMemStats(&after)
	if n := tx.Changed(); n != len(ids) {
		t.Fatalf("%d of %d triples were new", n, len(ids))
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ids))
}

// TestGuardTxAddBytesPerTriple pins what a transaction allocates per triple.
// A bulk load edits the nodes it made in place; when every triple
// path-copied all of the then four indexes this load cost 8 201 B per
// triple, 1 062 once it edited in place, and ≈ 630 with three indexes
// whose one-member sets need no allocation. Begun on an empty graph, the
// same transaction logs its triples and Commit lays them out as a base:
// ≈ 130 B per triple, the log, its sort buffer and the base's runs. A
// small transaction into a large graph is the other end: every node it
// first touches is published, so it pays those path copies (9 366 B per
// triple, then 6 192, ≈ 3 980 now — its later triples reuse the paths
// its first one copied).
func TestGuardTxAddBytesPerTriple(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead is not what this measures")
	}
	if got := txBytesPerTriple(t, NewGraph(), 0, 20000); got > 160 {
		t.Errorf("20000-triple Tx into an empty graph allocates %.0f B/triple, want <= 160", got)
	}
	g := NewGraph()
	seed := g.Intern(IRI("http://ex/seed"))
	addTripleIDs(g, seed, seed, seed)
	if got := txBytesPerTriple(t, g, 0, 20000); got > 800 {
		t.Errorf("20000-triple Tx into a one-triple graph allocates %.0f B/triple, want <= 800", got)
	}
	if got := txBytesPerTriple(t, g, 20000, 20010); got > 5000 {
		t.Errorf("10-triple Tx into a 20000-triple graph allocates %.0f B/triple, want <= 5000", got)
	}
}

// TestGuardBuildBytesPerRow pins what Build into a new graph allocates
// per triple of a gather-shaped batch (6 501 triples): the three runs'
// rows, their key directories and their ID index, every array packed at
// the bit length of its largest value (rows of 13, 24 and 13 bits, a
// predicate a 1-bit rank; 6.3 B of rows and 3 B of the rest per row),
// and a few headers — 9.8 B per triple; the sort buffer is the one the
// first Build left in sortBuf. With rows at twice the bit length of the
// largest ID and 32-bit directories it was 18.4 B; with 8-byte pairs,
// 33.5 B; with 12-byte rows, the last third of them the sort buffer,
// 40.4 B; laid out as three tries, every node, slot array and set
// header allocated at its final size, 158.
func TestGuardBuildBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead is not what this measures")
	}
	ts := gatherShaped(2000)
	buf := make([]Triple, len(ts))
	build := func() {
		copy(buf, ts)
		NewGraph().Build(buf)
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ts))
	t.Logf("%.1f B per triple", got)
	if got > 12 {
		t.Errorf("Build allocates %.1f B per triple, want <= 12", got)
	}
}

// TestGuardNewPairAllocatesNoSet: a triple whose (a, b) pair is new to an
// index puts its third component into a slot of that index — no pset,
// no set node. Here every test triple is such a triple in all three
// indexes, their keys fall into different slots of nodes the warmed
// transaction already owns and has grown, and so adding and removing
// them allocates nothing at all. (With a pset behind every set it was
// three allocations per index and triple.)
func TestGuardNewPairAllocatesNoSet(t *testing.T) {
	const n = 8
	g := NewGraph()
	var ids []ID
	for i := 0; i < 6+2*n; i++ { // 22 IDs: no two share their low five bits
		ids = append(ids, g.Intern(Integer(int64(i))))
	}
	s, pA, oA, sB, oB, sC, pC := ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[5]
	preds, objs := ids[6:6+n], ids[6+n:]
	// Anchors keep s, every predicate and every object present in the
	// indexes they lead, with pairs the test triples do not share. The
	// first is published into the tries: a seed triple, whose commit into
	// the empty graph builds a one-row base, goes first. So the
	// transaction starts on a non-empty graph and writes its tries, not
	// its log.
	seed := g.Intern(IRI("http://ex/seed"))
	addTripleIDs(g, seed, seed, seed)
	addTripleIDs(g, s, pA, oA)
	tx := g.Begin()
	defer tx.Abort()
	for j := range preds {
		tx.AddIDs(sB, preds[j], oB)
		tx.AddIDs(sC, pC, objs[j])
	}
	cycle := func() {
		for j := range preds {
			n := tx.Changed()
			if tx.AddIDs(s, preds[j], objs[j]); tx.Changed() != n+1 {
				t.Fatal("test triple already present")
			}
		}
		for j := range preds {
			tx.st.del(tx.tag, s, preds[j], objs[j])
		}
	}
	cycle() // grow the owned nodes' slot arrays once
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("adding and removing %d triples with new pairs allocates %.1f times, want 0", n, avg)
	}
	if sl := pmFind(tx.st.stats, uint32(preds[0])); sl == nil || sl.val != (predDelta{1, 1}) {
		t.Errorf("distinct-subject and -object counters after the cycles: %v, want 1, 1 (the anchor's)", sl)
	}
}

// TestTxLogGrowsByDoubling: a bulk transaction's log of a 156 669-triple
// document (the biblio load's size) allocates at most 2.5× its final
// buffer in all, as doubling does, not the ~5× of append's quarter steps.
// A small log still grows as append grows it.
func TestTxLogGrowsByDoubling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead is not what this measures")
	}
	const n = 156669
	tx := NewGraph().Begin()
	defer tx.Abort()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ID(n) {
		tx.AddIDs(i+1, 1, i+2)
	}
	runtime.ReadMemStats(&after)
	final := uint64(cap(tx.log)) * uint64(unsafe.Sizeof(Triple{}))
	total := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B allocated for a %d-byte final buffer of %d rows", total, final, n)
	if float64(total) > 2.5*float64(final) {
		t.Fatalf("the log allocated %d B for a %d-byte final buffer", total, final)
	}
	small := NewGraph().Begin()
	defer small.Abort()
	small.AddIDs(1, 2, 3)
	small.AddIDs(1, 2, 4)
	if c := cap(small.log); c != cap(append([]Triple{{}}, Triple{})) {
		t.Fatalf("a two-triple log has capacity %d", c)
	}
}
