package loader

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
	"scisparql/internal/storage"
)

func parseTTL(t *testing.T, src string) *rdf.Graph {
	t.Helper()
	g := rdf.NewGraph()
	if err := sparql.ParseTurtle(src, g); err != nil {
		t.Fatal(err)
	}
	return g
}

// graphOf returns a graph of ts, committed as one transaction.
func graphOf(ts ...triple) *rdf.Graph {
	g := rdf.NewGraph()
	rw := rewrite{adds: ts}
	rw.apply(g)
	return g
}

func arrayOf(t *testing.T, g *rdf.Graph, s, p rdf.Term) *array.Array {
	t.Helper()
	var out *array.Array
	g.MatchTerms(s, p, nil, func(_, _, o rdf.Term) bool {
		if at, ok := o.(rdf.Array); ok {
			out = at.A
		}
		return true
	})
	if out == nil {
		t.Fatalf("no array at %v %v", s, p)
	}
	return out
}

func TestConsolidateNestedCollection(t *testing.T) {
	g := parseTTL(t, `@prefix ex: <http://ex/> . ex:s ex:p ((1 2) (3 4)) .`)
	if g.Size() != 13 {
		t.Fatalf("pre size %d", g.Size())
	}
	n, err := ConsolidateCollections(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("consolidated %d", n)
	}
	// 13 triples collapse to 1.
	if g.Size() != 1 {
		t.Fatalf("post size %d", g.Size())
	}
	a := arrayOf(t, g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"))
	if !array.ShapeEqual(a.Shape, []int{2, 2}) || a.Etype() != array.Int {
		t.Fatalf("shape %v etype %v", a.Shape, a.Etype())
	}
	v, _ := a.At(1, 0)
	if v.I != 3 {
		t.Fatalf("a[1,0] = %v", v)
	}
}

func TestConsolidateFlatFloatCollection(t *testing.T) {
	g := parseTTL(t, `@prefix ex: <http://ex/> . ex:s ex:p (1.5 2.5 3.5) .`)
	if _, err := ConsolidateCollections(g); err != nil {
		t.Fatal(err)
	}
	a := arrayOf(t, g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"))
	if a.Etype() != array.Float || a.Count() != 3 {
		t.Fatalf("%v %d", a.Etype(), a.Count())
	}
}

func TestNonNumericCollectionLeftAlone(t *testing.T) {
	g := parseTTL(t, `@prefix ex: <http://ex/> . ex:s ex:p (1 "two" 3) .`)
	pre := g.Size()
	n, err := ConsolidateCollections(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || g.Size() != pre {
		t.Fatalf("should not consolidate: n=%d size %d->%d", n, pre, g.Size())
	}
}

func TestRaggedCollectionLeftAlone(t *testing.T) {
	g := parseTTL(t, `@prefix ex: <http://ex/> . ex:s ex:p ((1 2) (3)) .`)
	n, err := ConsolidateCollections(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("ragged list must not consolidate")
	}
}

func TestMixedIntFloatBecomesFloat(t *testing.T) {
	g := parseTTL(t, `@prefix ex: <http://ex/> . ex:s ex:p (1 2.5) .`)
	if _, err := ConsolidateCollections(g); err != nil {
		t.Fatal(err)
	}
	a := arrayOf(t, g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"))
	if a.Etype() != array.Float {
		t.Fatalf("etype %v", a.Etype())
	}
}

func TestMultipleCollections(t *testing.T) {
	g := parseTTL(t, `@prefix ex: <http://ex/> .
ex:a ex:p (1 2) . ex:b ex:p (3 4 5) .`)
	n, err := ConsolidateCollections(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || g.Size() != 2 {
		t.Fatalf("n=%d size=%d", n, g.Size())
	}
}

// scanCandidates is ConsolidateCollections' candidate search as a scan
// of the whole graph: every triple whose object has an rdf:first and
// whose predicate is not a list predicate, in the order Triples yields
// them.
func scanCandidates(g *rdf.Graph) []triple {
	var out []triple
	g.Triples(func(s, p, o rdf.Term) bool {
		if p != rdf.RDFFirst && p != rdf.RDFRest && hasFirst(g, o) {
			out = append(out, triple{s, p, o})
		}
		return true
	})
	return out
}

// listGraph is a random graph of triples whose objects are numbers,
// IRIs, fresh collections or collections already used elsewhere, some
// of them nested, some holding a string, some with a collection as their
// subject.
func listGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	tx := g.Begin()
	var heads []rdf.Term
	blanks := 0
	blank := func() rdf.Term { blanks++; return rdf.Blank(fmt.Sprintf("b%d", blanks)) }
	var list func(depth int) rdf.Term
	list = func(depth int) rdf.Term {
		head, n := blank(), 1+rng.Intn(3)
		for cur, i := head, 0; i < n; i++ {
			var item rdf.Term = rdf.Integer(rng.Intn(9))
			switch r := rng.Intn(8); {
			case r == 0:
				item = rdf.String{Val: "x"}
			case r == 1 && depth < 2:
				item = list(depth + 1)
			case r == 2 && len(heads) > 0:
				item = heads[rng.Intn(len(heads))]
			}
			next := rdf.Term(rdf.RDFNil)
			if i < n-1 {
				next = blank()
			}
			tx.Add(cur, rdf.RDFFirst, item)
			tx.Add(cur, rdf.RDFRest, next)
			cur = next
		}
		heads = append(heads, head)
		return head
	}
	for range 30 {
		var s rdf.Term = rdf.IRI(fmt.Sprintf("http://ex/s%d", rng.Intn(6)))
		if rng.Intn(6) == 0 && len(heads) > 0 {
			s = heads[rng.Intn(len(heads))]
		}
		var o rdf.Term = rdf.Integer(rng.Intn(9))
		switch r := rng.Intn(6); {
		case r == 0:
			o = rdf.IRI("http://ex/o")
		case r < 3:
			o = list(0)
		case r == 3 && len(heads) > 0:
			o = heads[rng.Intn(len(heads))]
		}
		tx.Add(s, rdf.IRI(fmt.Sprintf("http://ex/p%d", rng.Intn(3))), o)
	}
	tx.Commit()
	return g
}

func sameCandidates(t *testing.T, g *rdf.Graph) {
	t.Helper()
	got, want := collectionCandidates(g), scanCandidates(g)
	if len(got) != len(want) {
		t.Fatalf("%d candidates, a full scan finds %d", len(got), len(want))
	}
	for i := range got {
		if !rdf.SameTerm(got[i].s, want[i].s) || got[i].p != want[i].p || !rdf.SameTerm(got[i].o, want[i].o) {
			t.Fatalf("candidate %d is %v, a full scan's is %v", i, got[i], want[i])
		}
	}
}

// TestCollectionCandidatesMatchFullScan: the index-driven candidate search
// finds what a scan of every triple finds, in the same order, so the same
// collections consolidate in the same order. A fixed document with
// nested, shared and non-numeric lists beside unrelated triples pins the
// outcome; 200 random graphs pin the candidates; a graph without
// rdf:first has none.
func TestCollectionCandidatesMatchFullScan(t *testing.T) {
	if got := collectionCandidates(parseTTL(t, `<http://ex/s> <http://ex/p> 1, 2 .`)); got != nil {
		t.Fatalf("candidates %v in a graph without collections", got)
	}
	g := parseTTL(t, `@prefix ex: <http://ex/> .
ex:u ex:p 7 . ex:u ex:q ex:v .
ex:a ex:p ((1 2) (3 4)) .
ex:b ex:p _:shared . ex:c ex:q _:shared .
_:shared <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> 5 ; <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> (6) .
ex:d ex:p (1 "two" 3) .
ex:e ex:p (8 9) . ex:e ex:r 10 .`)
	sameCandidates(t, g)
	if n, err := ConsolidateCollections(g); err != nil || n != 4 {
		t.Fatalf("consolidated %d (%v), want 4", n, err)
	}
	arrays, shared := 0, 0
	g.Triples(func(s, p, o rdf.Term) bool {
		if _, ok := o.(rdf.Array); ok {
			arrays++
		}
		if _, ok := o.(rdf.Blank); ok && (s == rdf.IRI("http://ex/b") || s == rdf.IRI("http://ex/c")) {
			shared++
		}
		return true
	})
	// ex:a, ex:e, ex:b and ex:c get an array each, the shared list's
	// cells go; ex:d's triple and its list's 3 cells of 2 triples each
	// stay, and so do the 3 unrelated triples.
	if arrays != 4 || shared != 0 || g.Size() != 4+(1+2*3)+3 {
		t.Fatalf("%d arrays, %d shared heads left, %d triples", arrays, shared, g.Size())
	}
	if a := arrayOf(t, g, rdf.IRI("http://ex/a"), rdf.IRI("http://ex/p")); !array.ShapeEqual(a.Shape, []int{2, 2}) {
		t.Fatalf("ex:a's array has shape %v", a.Shape)
	}
	for seed := int64(1); seed <= 200; seed++ {
		sameCandidates(t, listGraph(rand.New(rand.NewSource(seed))))
	}
}

// TestSharedListBecomesTwoArrays: a list that two triples share
// consolidates into an array for each, and no triple is left pointing at
// the list's blank head, whose cells are gone.
func TestSharedListBecomesTwoArrays(t *testing.T) {
	g := parseTTL(t, `@prefix ex: <http://ex/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:a ex:p _:l . ex:b ex:p _:l .
_:l rdf:first 1 ; rdf:rest _:m . _:m rdf:first 2 ; rdf:rest rdf:nil .`)
	if n, err := ConsolidateCollections(g); err != nil || n != 2 {
		t.Fatalf("consolidated %d (%v), want 2", n, err)
	}
	if g.Size() != 2 {
		t.Fatalf("%d triples left, want 2", g.Size())
	}
	for _, s := range []rdf.IRI{"http://ex/a", "http://ex/b"} {
		if a := arrayOf(t, g, s, rdf.IRI("http://ex/p")); a.String() != "[1 2]" {
			t.Fatalf("%v's array is %v, want [1 2]", s, a)
		}
	}
}

func TestFileLinks(t *testing.T) {
	mem := storage.NewMemory()
	src, _ := array.FromFloats([]float64{1, 2, 3, 4}, 4)
	id, err := mem.Store(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := graphOf(triple{rdf.IRI("http://ex/s"), rdf.IRI("http://ex/data"),
		rdf.Typed{Lexical: "1", Datatype: rdf.SSDMFileLink}})
	_ = id
	n, err := ResolveFileLinks(g, mem)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resolved %d", n)
	}
	a := arrayOf(t, g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/data"))
	if a.Base.Resident() {
		t.Fatal("file-linked array should be proxied")
	}
	v, err := a.At(2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 3 {
		t.Fatalf("got %v", v)
	}
}

func TestFileLinkErrors(t *testing.T) {
	mem := storage.NewMemory()
	g := graphOf(triple{rdf.IRI("s"), rdf.IRI("p"), rdf.Typed{Lexical: "notanum", Datatype: rdf.SSDMFileLink}})
	if _, err := ResolveFileLinks(g, mem); err == nil {
		t.Fatal("bad lexical should fail")
	}
	g2 := graphOf(triple{rdf.IRI("s"), rdf.IRI("p"), rdf.Typed{Lexical: "99", Datatype: rdf.SSDMFileLink}})
	if _, err := ResolveFileLinks(g2, mem); err == nil {
		t.Fatal("unknown id should fail")
	}
}

const cubeTTL = `
@prefix qb: <http://purl.org/linked-data/cube#> .
@prefix ex: <http://ex/> .

ex:dsd a qb:DataStructureDefinition ;
  qb:component [ qb:dimension ex:year ; qb:order 1 ] ,
               [ qb:dimension ex:region ; qb:order 2 ] ,
               [ qb:measure ex:population ] .

ex:ds a qb:DataSet ; qb:structure ex:dsd .

ex:o1 qb:dataSet ex:ds ; ex:year 2010 ; ex:region "north" ; ex:population 100 .
ex:o2 qb:dataSet ex:ds ; ex:year 2010 ; ex:region "south" ; ex:population 200 .
ex:o3 qb:dataSet ex:ds ; ex:year 2011 ; ex:region "north" ; ex:population 110 .
ex:o4 qb:dataSet ex:ds ; ex:year 2011 ; ex:region "south" ; ex:population 210 .
`

func TestConsolidateDataCube(t *testing.T) {
	g := parseTTL(t, cubeTTL)
	pre := g.Size()
	n, err := ConsolidateDataCube(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("consolidated %d datasets", n)
	}
	if g.Size() >= pre {
		t.Fatalf("graph should shrink: %d -> %d", pre, g.Size())
	}
	ds := rdf.IRI("http://ex/ds")
	a := arrayOf(t, g, ds, rdf.IRI("http://ex/population"))
	if !array.ShapeEqual(a.Shape, []int{2, 2}) {
		t.Fatalf("shape %v", a.Shape)
	}
	// year dim sorted ascending (2010, 2011); region sorted ("north" < "south").
	v, _ := a.At(1, 1) // 2011 south
	if v.Float() != 210 {
		t.Fatalf("got %v", v)
	}
	// Dimension metadata present.
	dims := 0
	g.MatchTerms(ds, rdf.SSDMDimension, nil, func(_, _, _ rdf.Term) bool {
		dims++
		return true
	})
	if dims != 2 {
		t.Fatalf("dims %d", dims)
	}
}

// TestDataCubeLabelsReproducible: a document with two datasets
// consolidates to the same triples, blank labels included, on every
// load: the datasets are taken in the order the graph yields them, so
// the labels minted for their dimension nodes do not depend on map
// order. 20 loads print byte-identical Triples output.
func TestDataCubeLabelsReproducible(t *testing.T) {
	doc := cubeTTL + `
ex:ds2 a qb:DataSet ; qb:structure ex:dsd .
ex:q1 qb:dataSet ex:ds2 ; ex:year 2012 ; ex:region "east" ; ex:population 300 .
ex:q2 qb:dataSet ex:ds2 ; ex:year 2013 ; ex:region "west" ; ex:population 310 .
`
	var first string
	for load := range 20 {
		g := parseTTL(t, doc)
		if n, err := ConsolidateDataCube(g); err != nil || n != 2 {
			t.Fatalf("load %d: consolidated %d datasets, %v", load, n, err)
		}
		var out strings.Builder
		g.Triples(func(s, p, o rdf.Term) bool {
			fmt.Fprintf(&out, "%s %s %s .\n", s, p, o)
			return true
		})
		if load == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("load %d prints other triples than load 0:\n%s\nwant:\n%s", load, out.String(), first)
		}
	}
}

func TestDataCubeNumericDictionary(t *testing.T) {
	g := parseTTL(t, cubeTTL)
	if _, err := ConsolidateDataCube(g); err != nil {
		t.Fatal(err)
	}
	// The year dimension should carry a numeric index array [2010 2011].
	found := false
	g.MatchTerms(nil, rdf.QBDimensionProp, rdf.IRI("http://ex/year"), func(bn, _, _ rdf.Term) bool {
		g.MatchTerms(bn, rdf.SSDMIndex, nil, func(_, _, idx rdf.Term) bool {
			if at, ok := idx.(rdf.Array); ok {
				v, _ := at.A.At(0)
				if v.Intval() == 2010 {
					found = true
				}
			}
			return true
		})
		return true
	})
	if !found {
		t.Fatal("numeric dimension dictionary missing")
	}
}

func TestDataCubeWithoutStructureIgnored(t *testing.T) {
	g := parseTTL(t, `
@prefix qb: <http://purl.org/linked-data/cube#> .
@prefix ex: <http://ex/> .
ex:o1 qb:dataSet ex:ds ; ex:x 1 .
`)
	n, err := ConsolidateDataCube(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("dataset without structure must be ignored")
	}
}

// resolvePerLink is ResolveFileLinks as it was before it worked in one
// transaction: a term scan, then per link triple one Open and a
// transaction of a Delete and an Add. It is the reference the one-pass
// version must agree with.
func resolvePerLink(g *rdf.Graph, backend storage.Backend) (int, error) {
	var links []triple
	g.Triples(func(s, p, o rdf.Term) bool {
		if t, ok := o.(rdf.Typed); ok && t.Datatype == rdf.SSDMFileLink {
			links = append(links, triple{s, p, o})
		}
		return true
	})
	for i, l := range links {
		id, err := strconv.ParseInt(l.o.(rdf.Typed).Lexical, 10, 64)
		if err != nil {
			return i, err
		}
		a, err := backend.Open(id)
		if err != nil {
			return i, err
		}
		tx := g.Begin()
		tx.Delete(l.s, l.p, l.o)
		tx.Add(l.s, l.p, rdf.NewArray(a))
		tx.Commit()
	}
	return len(links), nil
}

// linkDoc is a generated Turtle document over stored: subjects with
// plain triples and file links, a stored array linked from several
// triples, and an unrelated literal typed like a link's neighbour.
func linkDoc(rng *rand.Rand, stored []int64) string {
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://ex/> .\n@prefix ssdm: <" + rdf.SSDMNS + "> .\n")
	for i := range 10 + rng.Intn(30) {
		fmt.Fprintf(&sb, "ex:s%d ex:n %d ; ex:t \"%d\"^^ex:dt .\n", i, rng.Intn(5), i)
		for k := rng.Intn(3); k > 0; k-- {
			fmt.Fprintf(&sb, "ex:s%d ex:d%d \"%d\"^^ssdm:fileLink .\n", i, rng.Intn(2), stored[rng.Intn(len(stored))])
		}
	}
	return sb.String()
}

// linkKeys renders g's triples, sorted, a proxied array as its back-end
// ID and elements.
func linkKeys(g *rdf.Graph) []string {
	var out []string
	g.Triples(func(s, p, o rdf.Term) bool {
		obj := o.Key()
		if at, ok := o.(rdf.Array); ok {
			if at.A.Base.Proxy == nil {
				obj = "resident " + at.A.String()
			} else {
				obj = fmt.Sprintf("array %d %v", at.A.Base.Proxy.ArrayID, at.A)
			}
		}
		out = append(out, s.Key()+" "+p.Key()+" "+obj)
		return true
	})
	slices.Sort(out)
	return out
}

// TestResolveFileLinksMatchesPerLink: on generated documents linking to
// a memory back-end, the one-transaction ResolveFileLinks leaves the
// triples the per-link version leaves and counts the same links; a
// document with one bad link among good ones fails and changes nothing.
func TestResolveFileLinksMatchesPerLink(t *testing.T) {
	mem := storage.NewMemory()
	var stored []int64
	for i := range 4 {
		a, _ := array.FromInts([]int64{int64(i), int64(i * i), 7}, 3)
		id, err := mem.Store(a, 2)
		if err != nil {
			t.Fatal(err)
		}
		stored = append(stored, id)
	}
	for seed := int64(1); seed <= 50; seed++ {
		doc := linkDoc(rand.New(rand.NewSource(seed)), stored)
		got, want := parseTTL(t, doc), parseTTL(t, doc)
		n, err := ResolveFileLinks(got, mem)
		if err != nil {
			t.Fatal(err)
		}
		m, err := resolvePerLink(want, mem)
		if err != nil {
			t.Fatal(err)
		}
		if n != m || !slices.Equal(linkKeys(got), linkKeys(want)) {
			t.Fatalf("seed %d: resolved %d links to %v, the per-link version %d to %v", seed, n, linkKeys(got), m, linkKeys(want))
		}
	}
	g := parseTTL(t, linkDoc(rand.New(rand.NewSource(1)), stored)+
		"ex:bad ex:d0 \"999\"^^ssdm:fileLink .\n")
	before := linkKeys(g)
	if n, err := ResolveFileLinks(g, mem); err == nil || n != 0 {
		t.Fatalf("a missing array resolved %d links (%v), want an error", n, err)
	}
	if after := linkKeys(g); !slices.Equal(after, before) {
		t.Fatalf("a failed resolution changed the graph: %v", after)
	}
}
