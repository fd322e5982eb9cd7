package rdf

import (
	"context"
	"fmt"
	"sort"
	"testing"
)

// batchTestGraph builds a small but index-diverse graph: several
// subjects sharing predicates, repeated objects, and a handful of
// one-off triples so every pattern class has both hits and misses.
func batchTestGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	for i := 0; i < 17; i++ {
		s := IRI(fmt.Sprintf("http://ex/s%d", i))
		addTriple(g, s, IRI("http://ex/type"), IRI("http://ex/Thing"))
		addTriple(g, s, IRI("http://ex/value"), Integer(int64(i%5)))
		if i%3 == 0 {
			addTriple(g, s, IRI("http://ex/link"), IRI(fmt.Sprintf("http://ex/s%d", (i+1)%17)))
		}
	}
	addTriple(g, IRI("http://ex/solo"), IRI("http://ex/only"), String{Val: "once"})
	return g
}

func sortedTriples(ts []Triple) []Triple {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].S != ts[j].S {
			return ts[i].S < ts[j].S
		}
		if ts[i].P != ts[j].P {
			return ts[i].P < ts[j].P
		}
		return ts[i].O < ts[j].O
	})
	return ts
}

func collectMatch(g *Graph, s, p, o ID) []Triple {
	var out []Triple
	g.Match(s, p, o, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return sortedTriples(out)
}

func collectMatchIDs(g *Graph, s, p, o ID, bs int) []Triple {
	var out []Triple
	g.MatchIDs(nil, s, p, o, bs, func(ss, pp, oo []ID) bool {
		if len(ss) != len(pp) || len(pp) != len(oo) {
			panic("ragged batch")
		}
		for i := range ss {
			out = append(out, Triple{ss[i], pp[i], oo[i]})
		}
		return true
	})
	return sortedTriples(out)
}

// patternCases enumerates all eight bound/wildcard pattern classes over
// the test graph, including patterns with zero matches.
func patternCases(g *Graph) [][3]ID {
	s0, _ := g.Lookup(IRI("http://ex/s0"))
	typ, _ := g.Lookup(IRI("http://ex/type"))
	thing, _ := g.Lookup(IRI("http://ex/Thing"))
	val, _ := g.Lookup(IRI("http://ex/value"))
	v2, _ := g.Lookup(Integer(2))
	solo, _ := g.Lookup(IRI("http://ex/solo"))
	return [][3]ID{
		{s0, typ, thing}, // fully bound, hit
		{s0, val, thing}, // fully bound, miss
		{s0, typ, 0},     // SP bound
		{0, typ, thing},  // PO bound
		{s0, 0, thing},   // SO bound
		{s0, 0, 0},       // S bound
		{0, val, 0},      // P bound
		{0, 0, v2},       // O bound
		{0, 0, 0},        // wildcard
		{solo, 0, 0},     // S bound, 1 match
		{thing, 0, 0},    // S bound, 0 matches (Thing is never a subject)
	}
}

func TestMatchIDsEquivalence(t *testing.T) {
	g := batchTestGraph(t)
	for _, bs := range []int{1, 2, 3, 7, 0 /* default */, 4096} {
		for _, pc := range patternCases(g) {
			want := collectMatch(g, pc[0], pc[1], pc[2])
			got := collectMatchIDs(g, pc[0], pc[1], pc[2], bs)
			if len(want) != len(got) {
				t.Fatalf("pattern %v bs=%d: Match got %d triples, MatchIDs %d", pc, bs, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("pattern %v bs=%d: row %d differs: %v vs %v", pc, bs, i, want[i], got[i])
				}
			}
		}
	}
}

func TestMatchIDsBatchBounds(t *testing.T) {
	g := batchTestGraph(t)
	const bs = 4
	batches := 0
	g.MatchIDs(nil, 0, 0, 0, bs, func(ss, pp, oo []ID) bool {
		batches++
		// The subject-grouped gather may overshoot bs by one subject's
		// fan-out but never by more than the largest per-subject count.
		if len(ss) == 0 {
			t.Fatal("empty batch yielded")
		}
		return true
	})
	if batches < 2 {
		t.Fatalf("expected multiple batches at bs=%d over %d triples, got %d", bs, g.Size(), batches)
	}
}

func TestMatchIDsEarlyStop(t *testing.T) {
	g := batchTestGraph(t)
	calls := 0
	g.MatchIDs(nil, 0, 0, 0, 2, func(ss, pp, oo []ID) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("yield returned false but was called %d times", calls)
	}
}

func TestMatchIDsCancellation(t *testing.T) {
	g := batchTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	g.MatchIDs(ctx, 0, 0, 0, 2, func(ss, pp, oo []ID) bool {
		calls++
		cancel()
		return true
	})
	if calls != 1 {
		t.Fatalf("cancelled after first batch but saw %d batches", calls)
	}
}

func TestMatchAppendEquivalence(t *testing.T) {
	g := batchTestGraph(t)
	var dst TripleBatch
	for _, pc := range patternCases(g) {
		dst.Reset()
		n := g.MatchAppend(pc[0], pc[1], pc[2], &dst)
		if n != dst.Len() {
			t.Fatalf("pattern %v: returned %d but batch has %d rows", pc, n, dst.Len())
		}
		got := make([]Triple, 0, n)
		for i := 0; i < n; i++ {
			got = append(got, Triple{dst.S[i], dst.P[i], dst.O[i]})
		}
		got = sortedTriples(got)
		want := collectMatch(g, pc[0], pc[1], pc[2])
		if len(want) != len(got) {
			t.Fatalf("pattern %v: Match got %d triples, MatchAppend %d", pc, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("pattern %v: row %d differs: %v vs %v", pc, i, want[i], got[i])
			}
		}
	}
}

func TestMatchAppendAccumulates(t *testing.T) {
	g := batchTestGraph(t)
	typ, _ := g.Lookup(IRI("http://ex/type"))
	val, _ := g.Lookup(IRI("http://ex/value"))
	var dst TripleBatch
	n1 := g.MatchAppend(0, typ, 0, &dst)
	n2 := g.MatchAppend(0, val, 0, &dst)
	if dst.Len() != n1+n2 {
		t.Fatalf("accumulation broken: %d+%d != %d", n1, n2, dst.Len())
	}
}

func TestHasIDs(t *testing.T) {
	g := batchTestGraph(t)
	s0, _ := g.Lookup(IRI("http://ex/s0"))
	typ, _ := g.Lookup(IRI("http://ex/type"))
	thing, _ := g.Lookup(IRI("http://ex/Thing"))
	if !g.HasIDs(s0, typ, thing) {
		t.Fatal("present triple not found")
	}
	if g.HasIDs(thing, typ, s0) {
		t.Fatal("absent triple reported present")
	}
	if g.HasIDs(0, typ, thing) {
		t.Fatal("wildcard ID should never be present as a bound probe")
	}
}

func TestGenerationAdvances(t *testing.T) {
	g := NewGraph()
	g0 := g.Generation()
	addTriple(g, IRI("http://ex/a"), IRI("http://ex/p"), Integer(1))
	g1 := g.Generation()
	if g1 <= g0 {
		t.Fatalf("generation did not advance on insert: %d -> %d", g0, g1)
	}
	// Re-adding the same triple interns nothing and inserts nothing.
	addTriple(g, IRI("http://ex/a"), IRI("http://ex/p"), Integer(1))
	if g.Generation() != g1 {
		t.Fatalf("generation advanced on no-op add: %d -> %d", g1, g.Generation())
	}
	// Interning a brand-new term advances it even without an insert.
	g.Intern(IRI("http://ex/fresh"))
	g2 := g.Generation()
	if g2 <= g1 {
		t.Fatalf("generation did not advance on intern: %d -> %d", g1, g2)
	}
	deleteTriple(g, IRI("http://ex/a"), IRI("http://ex/p"), Integer(1))
	if g.Generation() <= g2 {
		t.Fatal("generation did not advance on delete")
	}
}

func TestDictStats(t *testing.T) {
	g := NewGraph()
	if s := g.DictStats(); s.Terms != 0 || s.Bytes != 0 {
		t.Fatalf("empty graph has dict stats %+v", s)
	}
	addTriple(g, IRI("http://ex/a"), IRI("http://ex/p"), Integer(1))
	s := g.DictStats()
	if s.Terms != 3 {
		t.Fatalf("expected 3 interned terms, got %d", s.Terms)
	}
	if s.Bytes <= 0 {
		t.Fatalf("expected positive dict bytes, got %d", s.Bytes)
	}
	if s.Generation != g.Generation() {
		t.Fatal("DictStats generation disagrees with Generation()")
	}

	d := NewDataset()
	addTriple(d.Default, IRI("http://ex/a"), IRI("http://ex/p"), Integer(1))
	addTriple(d.Named(IRI("http://ex/g"), true), IRI("http://ex/b"), IRI("http://ex/p"), Integer(2))
	ds := d.DictStats()
	if ds.Terms != 6 {
		t.Fatalf("expected 6 terms across dataset dictionaries, got %d", ds.Terms)
	}
}

// TestMatchIDsAllocFree verifies the steady-state contract: after pool
// warmup, a full MatchIDs enumeration allocates nothing per batch.
func TestMatchIDsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	g := batchTestGraph(t)
	typ, _ := g.Lookup(IRI("http://ex/type"))
	run := func() {
		g.MatchIDs(nil, 0, typ, 0, 8, func(ss, pp, oo []ID) bool { return true })
	}
	run() // warm the pools
	allocs := testing.AllocsPerRun(50, run)
	if allocs > 0.5 {
		t.Fatalf("steady-state MatchIDs allocated %.1f times per run, want 0", allocs)
	}
}

// TestMatchAppendAllocFree: probes into a pre-grown destination batch
// must not allocate.
func TestMatchAppendAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	g := batchTestGraph(t)
	s0, _ := g.Lookup(IRI("http://ex/s0"))
	dst := &TripleBatch{S: make([]ID, 0, 64), P: make([]ID, 0, 64), O: make([]ID, 0, 64)}
	allocs := testing.AllocsPerRun(50, func() {
		dst.Reset()
		g.MatchAppend(s0, 0, 0, dst)
	})
	if allocs > 0 {
		t.Fatalf("MatchAppend allocated %.1f times per run, want 0", allocs)
	}
}
