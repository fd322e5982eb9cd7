package rdf

import (
	"fmt"
	"runtime"
	"testing"
)

// TestBoundProbeAllocFree pins the fully-bound fast path at zero
// allocations: a bound probe is a hash lookup, not a scan.
func TestBoundProbeAllocFree(t *testing.T) {
	g := benchGraph(1000)
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
	}); avg > 3 { // term->ID lookups may hash-intern strings, but no slices
		t.Fatalf("Has allocates %.1f per run, want a small constant", avg)
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
	g := benchGraph(5000) // 10000 triples
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
// against actual matches, including after deletions.
func TestCountMatchConstant(t *testing.T) {
	g := NewGraph()
	p1t, p2t := IRI("http://ex/p1"), IRI("http://ex/p2")
	s1t, s2t := IRI("http://ex/a"), IRI("http://ex/b")
	g.Add(s1t, p1t, Integer(1))
	g.Add(s1t, p2t, Integer(2))
	g.Add(s2t, p1t, Integer(1))
	g.Add(s2t, p1t, Integer(3))

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

	g.Delete(s2t, p1t, Integer(3))
	check(0, p1, 0, 2)
	check(s2, 0, 0, 1)

	g.Delete(s2t, p1t, Integer(1))
	check(s2, 0, 0, 0)
	check(0, 0, o1, 1)

	if n, fanOut, distinct := g.PredStats(p1); n != 1 || fanOut != 1 || distinct != 1 {
		t.Errorf("PredStats(p1) = %d,%d,%d, want 1,1,1", n, fanOut, distinct)
	}

	// Counters must stay O(1)-consistent through a mixed workload.
	for i := 0; i < 50; i++ {
		g.Add(IRI(fmt.Sprintf("http://ex/m%d", i%7)), p1t, Integer(int64(i)))
	}
	for i := 0; i < 50; i += 2 {
		g.Delete(IRI(fmt.Sprintf("http://ex/m%d", i%7)), p1t, Integer(int64(i)))
	}
	n := 0
	g.Match(0, p1, 0, func(Triple) bool { n++; return true })
	if got := g.CountMatch(0, p1, 0); got != n {
		t.Fatalf("CountMatch(p1) = %d, enumeration says %d", got, n)
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
		if !tx.addIDs(tr.S, tr.P, tr.O) {
			t.Fatalf("triple %v already present", tr)
		}
	}
	tx.Commit()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ids))
}

// TestGuardTxAddBytesPerTriple pins what a transaction allocates per triple.
// A bulk load edits the nodes it made in place; when every triple
// path-copied all of the then four indexes this load cost 8 201 B per
// triple, 1 062 once it edited in place, and ≈ 630 with three indexes
// whose one-member sets need no allocation. A small transaction into a
// large graph is the other end: every node it first touches is
// published, so it pays those path copies (9 366 B per triple, then
// 6 192, ≈ 3 980 now — its later triples reuse the paths its first one
// copied).
func TestGuardTxAddBytesPerTriple(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead is not what this measures")
	}
	g := NewGraph()
	if got := txBytesPerTriple(t, g, 0, 20000); got > 800 {
		t.Errorf("20000-triple Tx into an empty graph allocates %.0f B/triple, want <= 800", got)
	}
	if got := txBytesPerTriple(t, g, 20000, 20010); got > 5000 {
		t.Errorf("10-triple Tx into a 20000-triple graph allocates %.0f B/triple, want <= 5000", got)
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
	tx := g.Begin()
	defer tx.Abort()
	// Anchors keep s, every predicate and every object present in the
	// indexes they lead, with pairs the test triples do not share.
	tx.addIDs(s, pA, oA)
	for j := range preds {
		tx.addIDs(sB, preds[j], oB)
		tx.addIDs(sC, pC, objs[j])
	}
	cycle := func() {
		for j := range preds {
			if !tx.addIDs(s, preds[j], objs[j]) {
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
	if sl := pmFind(tx.st.subjects, uint32(preds[0])); sl == nil || sl.val != 1 {
		t.Errorf("distinct-subject counter after the cycles: %v, want 1 (the anchor's)", sl)
	}
}
