package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// benchGraph builds a graph shaped like a metadata store: n subjects,
// each with a type triple and an integer value, committed as one
// transaction into an empty graph, so it is one sorted base — the form
// a loaded graph takes.
func benchGraph(n int) *Graph {
	g := NewGraph()
	tx := g.Begin()
	addBench(tx.Add, n)
	tx.Commit()
	return g
}

// deltaGraph holds benchGraph's triples in the delta's tries over a
// one-row base: each is its own transaction, below deltaCap.
func deltaGraph(n int) *Graph {
	g := NewGraph()
	addBench(func(s, p, o Term) { addTriple(g, s, p, o) }, n)
	return g
}

func addBench(add func(s, p, o Term), n int) {
	typ := IRI("http://ex/type")
	val := IRI("http://ex/val")
	thing := IRI("http://ex/Thing")
	for i := 0; i < n; i++ {
		s := IRI(fmt.Sprintf("http://ex/s%d", i))
		add(s, typ, thing)
		add(s, val, Integer(int64(i%100)))
	}
}

// BenchmarkGraphBoundProbe is the fully-bound membership probe (the
// nested-loop join inner loop). It must not allocate.
func BenchmarkGraphBoundProbe(b *testing.B) {
	g := benchGraph(1000)
	s, _ := g.Lookup(IRI("http://ex/s500"))
	p, _ := g.Lookup(IRI("http://ex/val"))
	o, _ := g.Lookup(Integer(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Match(s, p, o, func(Triple) bool { return true })
	}
}

// BenchmarkGraphHalfBoundProbe is the (p, o)-bound probe used by
// selective patterns like { ?s ex:val 42 }.
func BenchmarkGraphHalfBoundProbe(b *testing.B) {
	g := benchGraph(1000)
	p, _ := g.Lookup(IRI("http://ex/val"))
	o, _ := g.Lookup(Integer(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.Match(0, p, o, func(Triple) bool {
			n++
			return true
		})
		if n != 10 {
			b.Fatalf("matched %d", n)
		}
	}
}

// BenchmarkGraphScanEarlyStop is the ASK shape: wildcard scan stopped
// at the first triple.
func BenchmarkGraphScanEarlyStop(b *testing.B) {
	g := benchGraph(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Match(0, 0, 0, func(Triple) bool { return false })
	}
}

// BenchmarkGraphScanFull is the full wildcard enumeration.
func BenchmarkGraphScanFull(b *testing.B) {
	g := benchGraph(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.Match(0, 0, 0, func(Triple) bool {
			n++
			return true
		})
		if n != 10000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

// BenchmarkGraphPredStats is the optimizer's per-BGP statistics call.
func BenchmarkGraphPredStats(b *testing.B) {
	g := benchGraph(5000)
	p, _ := g.Lookup(IRI("http://ex/val"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count, dS, dO := g.PredStats(p)
		if count != 5000 || dS != 5000 || dO != 100 {
			b.Fatalf("stats %d %d %d", count, dS, dO)
		}
	}
}

// gatherShaped returns the ID triples a coauthor gather collects over
// docs documents: three creators per document drawn from docs/4+1
// authors, and every author's name, in the order four legs might
// deliver them, with IDs handed out in order of first sight as the
// scratch dictionary interns them.
func gatherShaped(docs int) []Triple {
	authors := docs/4 + 1
	type row struct{ s, p, o int } // term numbers: docs, then authors, names, two predicates
	creator, name := 2*authors+docs, 2*authors+docs+1
	var rows []row
	for d := 0; d < docs; d++ {
		for k := 0; k < 3; k++ {
			rows = append(rows, row{d, creator, docs + (3*d+k)*7%authors})
		}
	}
	for a := 0; a < authors; a++ {
		rows = append(rows, row{docs + a, name, docs + authors + a})
	}
	rand.New(rand.NewSource(1)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	ids := map[int]ID{}
	id := func(term int) ID {
		if _, ok := ids[term]; !ok {
			ids[term] = ID(len(ids) + 1)
		}
		return ids[term]
	}
	out := make([]Triple, len(rows))
	for i, r := range rows {
		out[i] = Triple{id(r.s), id(r.p), id(r.o)}
	}
	return out
}

// BenchmarkBuild builds a gather's scratch graph as three sorted runs;
// BenchmarkBuildTx is its twin, the same triples added one by one
// through a transaction.
func BenchmarkBuild(b *testing.B) {
	ts := gatherShaped(2000)
	buf := make([]Triple, len(ts))
	b.ReportAllocs()
	for b.Loop() {
		copy(buf, ts)
		NewGraph().Build(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ts)), "ns/triple")
}

func BenchmarkBuildTx(b *testing.B) {
	ts := gatherShaped(2000)
	b.ReportAllocs()
	for b.Loop() {
		tx := NewGraph().Begin()
		for _, t := range ts {
			tx.AddIDs(t.S, t.P, t.O)
		}
		tx.Commit()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ts)), "ns/triple")
}

// BenchmarkBuiltProbe is the vectorized join's two probes — HasIDs on a
// present triple, MatchAppend on its (s, p) pair — over a built graph
// and over a graph of the same gather-shaped triples in tries (one
// transaction per triple: a one-row base, the rest in the delta).
func BenchmarkBuiltProbe(b *testing.B) {
	ts := gatherShaped(2000)
	built, added := NewGraph(), NewGraph()
	built.Build(slices.Clone(ts))
	for _, t := range ts {
		addTripleIDs(added, t.S, t.P, t.O)
	}
	for _, g := range []struct {
		name string
		g    *Graph
	}{{"built", built}, {"tx", added}} {
		b.Run(g.name+"/HasIDs", func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				if t := ts[i%len(ts)]; !g.g.HasIDs(t.S, t.P, t.O) {
					b.Fatalf("lost %v", t)
				}
			}
		})
		b.Run(g.name+"/MatchAppend", func(b *testing.B) {
			var dst TripleBatch
			for i := 0; b.Loop(); i++ {
				t := ts[i%len(ts)]
				dst.Reset()
				if g.g.MatchAppend(t.S, t.P, 0, &dst) == 0 {
					b.Fatalf("lost %v", t)
				}
			}
		})
	}
}

// BenchmarkGraphCountMatchOneBound is CountMatch with one bound
// position, the cardinality estimate behind cost-based join ordering.
func BenchmarkGraphCountMatchOneBound(b *testing.B) {
	g := benchGraph(5000)
	p, _ := g.Lookup(IRI("http://ex/val"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := g.CountMatch(0, p, 0); n != 5000 {
			b.Fatalf("count %d", n)
		}
	}
}

// dictTerms returns n distinct terms shaped like a metadata store's: IRIs
// with a shared prefix and plain strings, alternating, boxed beforehand
// so the benchmarks time the dictionary alone.
func dictTerms(n int) []Term {
	ts := make([]Term, n)
	for i := range ts {
		if i%2 == 0 {
			ts[i] = IRI(fmt.Sprintf("http://bench/doc%d", i))
		} else {
			ts[i] = String{Val: fmt.Sprintf("Title %d", i)}
		}
	}
	return ts
}

// BenchmarkDictIntern interns 60 000 fresh terms into an empty graph per
// op: every intern a miss, the identity index growing from nothing.
func BenchmarkDictIntern(b *testing.B) {
	ts := dictTerms(60000)
	b.ReportAllocs()
	for b.Loop() {
		g := NewGraph()
		for _, t := range ts {
			g.Intern(t)
		}
	}
}

// BenchmarkDictLookup is one hit per op, over 60 000 interned terms
// visited in a shuffled order. The terms looked up are equal copies, not
// the values interned, as a parsed query's or document's are.
func BenchmarkDictLookup(b *testing.B) {
	ts := dictTerms(60000)
	g := NewGraph()
	for _, t := range dictTerms(len(ts)) {
		g.Intern(t)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, ok := g.Lookup(ts[i%len(ts)]); !ok {
			b.Fatal("lost a term")
		}
	}
}
