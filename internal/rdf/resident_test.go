package rdf

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// biblioGraph is the bibliographic shape the repository's benchmark
// loads (bench/gen.go), built in one transaction: docs documents of 7–8
// triples — a type, one of 12 journals and one of 20 years shared by
// many, a title of their own, three creators out of docs/4+1 authors,
// an abstract on every third — plus two triples per author.
func biblioGraph(docs int) *Graph {
	g := NewGraph()
	b := func(format string, a ...any) ID { return g.Intern(IRI("http://bench/" + fmt.Sprintf(format, a...))) }
	typ, name, journal, year := b("type"), b("name"), b("journal"), b("year")
	title, creator, abstract := b("title"), b("creator"), b("abstract")
	person, article := b("Person"), b("Article")
	authors := docs/4 + 1
	r := rand.New(rand.NewSource(1))
	credit := r.Perm(authors)
	tx := g.Begin()
	for a := 0; a < authors; a++ {
		tx.addIDs(b("author%d", a), typ, person)
		tx.addIDs(b("author%d", a), name, g.Intern(String{Val: fmt.Sprintf("Author %d", a)}))
	}
	for d := 0; d < docs; d++ {
		doc, cell := b("doc%d", d), r.Intn(12*20)
		tx.addIDs(doc, typ, article)
		tx.addIDs(doc, journal, b("journal%d", cell/20))
		tx.addIDs(doc, year, g.Intern(Integer(int64(1990+cell%20))))
		tx.addIDs(doc, title, g.Intern(String{Val: fmt.Sprintf("Title %d", d)}))
		for k := 0; k < 3; k++ {
			tx.addIDs(doc, creator, b("author%d", credit[(3*d+k)%authors]))
		}
		if d%3 == 0 {
			tx.addIDs(doc, abstract, g.Intern(String{Val: fmt.Sprintf("Abstract of doc %d", d)}))
		}
	}
	tx.Commit()
	return g
}

// TestGuardResidentBytesPerTriple pins what a loaded graph keeps on the heap
// per triple, dictionary included: 357 B with four permutations and a
// pset behind every set, 178 B with three and one-member sets inline.
func TestGuardResidentBytesPerTriple(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not what this measures")
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	g := biblioGraph(20000)
	got := float64(heap()-before) / float64(g.Size())
	runtime.KeepAlive(g)
	t.Logf("%d triples, %d terms: %.0f B/triple resident", g.Size(), g.dict.len(), got)
	if got > 215 {
		t.Errorf("resident heap is %.0f B/triple, want <= 215", got)
	}
}

// benchBiblio is the 20 000-document graph of TestGuardResidentBytesPerTriple,
// shared by the fixed-order benchmarks below.
var benchBiblio = sync.OnceValue(func() *Graph { return biblioGraph(20000) })

// BenchmarkHasIDsShuffled probes every creator triple once per pass in
// a seeded random order — an order that does not depend on which
// permutation a predicate scan walks, unlike a probe of "the first n
// triples the scan returned".
func BenchmarkHasIDsShuffled(b *testing.B) {
	g := benchBiblio()
	p, _ := g.Lookup(IRI("http://bench/creator"))
	var ts []Triple
	g.Match(0, p, 0, func(t Triple) bool { ts = append(ts, t); return true })
	rand.New(rand.NewSource(2)).Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := ts[i%len(ts)]; !g.HasIDs(t.S, t.P, t.O) {
			b.Fatalf("lost %v", t)
		}
	}
}

// BenchmarkMatchPredicateOnly scans one predicate's 60 000 triples —
// the one-bound pattern with no subject-major permutation of its own:
// it walks pos[p], object by object — tuple- and batch-at-a-time; ns/op
// is per triple.
func BenchmarkMatchPredicateOnly(b *testing.B) {
	g := benchBiblio()
	p, _ := g.Lookup(IRI("http://bench/creator"))
	b.Run("tuple", func(b *testing.B) {
		for n := 0; n < b.N; {
			g.Match(0, p, 0, func(Triple) bool { n++; return n < b.N })
		}
	})
	b.Run("batch", func(b *testing.B) {
		for n := 0; n < b.N; {
			g.MatchIDs(nil, 0, p, 0, 0, func(s, _, _ []ID) bool { n += len(s); return n < b.N })
		}
	})
}

// BenchmarkMatchSubjectOnly gathers one document's 7–8 triples, a
// different document each time — the join probe's shape; ns/op is per
// document.
func BenchmarkMatchSubjectOnly(b *testing.B) {
	g := benchBiblio()
	docs := make([]ID, 20000)
	for d := range docs {
		docs[d], _ = g.Lookup(IRI(fmt.Sprintf("http://bench/doc%d", d)))
	}
	rand.New(rand.NewSource(3)).Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	b.Run("tuple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			g.Match(docs[i%len(docs)], 0, 0, func(Triple) bool { n++; return true })
			if n < 7 {
				b.Fatalf("document with %d triples", n)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		dst := new(TripleBatch)
		for i := 0; i < b.N; i++ {
			dst.Reset()
			if n := g.MatchAppend(docs[i%len(docs)], 0, 0, dst); n < 7 {
				b.Fatalf("document with %d triples", n)
			}
		}
	})
}
