package rdf

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchGraph builds a graph shaped like a metadata store: n subjects,
// a handful of predicates, object values drawn from a small domain.
func benchGraph(n int) *Graph {
	g := NewGraph()
	typ := IRI("http://ex/type")
	val := IRI("http://ex/val")
	thing := IRI("http://ex/Thing")
	for i := 0; i < n; i++ {
		s := IRI(fmt.Sprintf("http://ex/s%d", i))
		g.Add(s, typ, thing)
		g.Add(s, val, Integer(int64(i%100)))
	}
	return g
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

// BenchmarkBuild lays out a gather's scratch graph in one pass;
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
			tx.addIDs(t.S, t.P, t.O)
		}
		tx.Commit()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ts)), "ns/triple")
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
