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
func biblioGraph(docs int) *Graph { return biblioInto(NewGraph(), docs) }

// biblioInto is biblioGraph's transaction run on g.
func biblioInto(g *Graph, docs int) *Graph {
	b := func(format string, a ...any) ID { return g.Intern(IRI("http://bench/" + fmt.Sprintf(format, a...))) }
	typ, name, journal, year := b("type"), b("name"), b("journal"), b("year")
	title, creator, abstract := b("title"), b("creator"), b("abstract")
	person, article := b("Person"), b("Article")
	authors := docs/4 + 1
	r := rand.New(rand.NewSource(1))
	credit := r.Perm(authors)
	tx := g.Begin()
	for a := 0; a < authors; a++ {
		tx.AddIDs(b("author%d", a), typ, person)
		tx.AddIDs(b("author%d", a), name, g.Intern(String{Val: fmt.Sprintf("Author %d", a)}))
	}
	for d := 0; d < docs; d++ {
		doc, cell := b("doc%d", d), r.Intn(12*20)
		tx.AddIDs(doc, typ, article)
		tx.AddIDs(doc, journal, b("journal%d", cell/20))
		tx.AddIDs(doc, year, g.Intern(Integer(int64(1990+cell%20))))
		tx.AddIDs(doc, title, g.Intern(String{Val: fmt.Sprintf("Title %d", d)}))
		for k := 0; k < 3; k++ {
			tx.AddIDs(doc, creator, b("author%d", credit[(3*d+k)%authors]))
		}
		if d%3 == 0 {
			tx.AddIDs(doc, abstract, g.Intern(String{Val: fmt.Sprintf("Abstract of doc %d", d)}))
		}
	}
	tx.Commit()
	return g
}

// TestGuardResidentBytesPerTriple pins what a loaded graph keeps on the heap
// per triple, dictionary included: 357 B with four permutations and a
// pset behind every set, 178 B with three and one-member sets inline,
// 162 B once the middle level dropped its key count, 78 B (forty
// readings, all 78) once the load's commit compacted the tries into a
// sorted base — 39 B of it the base's runs and ID index, 39 B the
// dictionary — 68 B since the dictionary's identity index is a table
// of IDs rather than a string-keyed map per kind (29 B the dictionary),
// 59.4 B since each base run stores a key once, not in every row it
// leads: 8-byte pairs under a key directory (30 B the base: 24 B of
// pairs, 3 B of directory, 3 B of ID index), 47.4 B since a base packs
// each row at twice the bit length of its largest ID, here 16 bits (12 B
// of rows where the pairs took 24), and 41.2 B since every array of the
// base takes the bit length of its own largest value and SPO's and
// OSP's rows hold a predicate as a 3-bit rank (11.8 B the base: 8.8 B of
// rows, 3.1 B of directories and ID index).
func TestGuardResidentBytesPerTriple(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not what this measures")
	}
	before := heap()
	g := biblioGraph(20000)
	got := float64(heap()-before) / float64(g.Size())
	runtime.KeepAlive(g)
	t.Logf("%d triples, %d terms: %.1f B/triple resident", g.Size(), g.dict.len(), got)
	if got > 44 {
		t.Errorf("resident heap is %.0f B/triple, want <= 44", got)
	}
}

// heap returns the live heap after two collections.
func heap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestGuardBulkCommitLeavesBase: a Tx of more than deltaCap adds commits
// a base with an empty delta — into an empty graph, where the Tx logs
// every add, and into a non-empty one, where it fills its tries to the
// cap and logs the rest — and the graph keeps no more per triple than
// TestGuardResidentBytesPerTriple allows: 41.2 B both ways, 47.4 with
// rows packed at the width of the largest ID, 59.4 with 8-byte pairs, 68
// when a base repeated its key in every 12-byte row. A delta left in
// tries costs about twice the bytes per triple of a base.
func TestGuardBulkCommitLeavesBase(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not what this measures")
	}
	for _, seeded := range []bool{false, true} {
		before := heap()
		g := NewGraph()
		if seeded {
			seed := g.Intern(IRI("http://bench/seed"))
			addTripleIDs(g, seed, seed, seed)
		}
		biblioInto(g, 20000)
		got := float64(heap()-before) / float64(g.Size())
		if st := g.cur(); st.base == nil || st.adds.n+st.dels.n != 0 || st.base.n != st.size || st.base.starts[0].at(st.base.keys[0].n) != uint64(st.size) || st.size <= deltaCap {
			t.Fatalf("seeded %v: %d triples committed as base %v, %d adds and %d tombstones", seeded, st.size, st.base != nil, st.adds.n, st.dels.n)
		}
		t.Logf("seeded %v: %d triples, %.1f B/triple resident", seeded, g.Size(), got)
		if got > 44 {
			t.Errorf("seeded %v: resident heap is %.0f B/triple, want <= 44", seeded, got)
		}
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
