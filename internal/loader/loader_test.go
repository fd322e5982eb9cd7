package loader

import (
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

func TestFileLinks(t *testing.T) {
	mem := storage.NewMemory()
	src, _ := array.FromFloats([]float64{1, 2, 3, 4}, 4)
	id, err := mem.Store(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph()
	g.Add(rdf.IRI("http://ex/s"), rdf.IRI("http://ex/data"),
		rdf.Typed{Lexical: "1", Datatype: rdf.SSDMFileLink})
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
	g := rdf.NewGraph()
	g.Add(rdf.IRI("s"), rdf.IRI("p"), rdf.Typed{Lexical: "notanum", Datatype: rdf.SSDMFileLink})
	if _, err := ResolveFileLinks(g, mem); err == nil {
		t.Fatal("bad lexical should fail")
	}
	g2 := rdf.NewGraph()
	g2.Add(rdf.IRI("s"), rdf.IRI("p"), rdf.Typed{Lexical: "99", Datatype: rdf.SSDMFileLink})
	if _, err := ResolveFileLinks(g2, mem); err == nil {
		t.Fatal("unknown id should fail")
	}
}

func TestLinkArray(t *testing.T) {
	mem := storage.NewMemory()
	src, _ := array.FromInts([]int64{7, 8}, 2)
	id, _ := mem.Store(src, 2)
	g := rdf.NewGraph()
	if err := LinkArray(g, rdf.IRI("s"), rdf.IRI("p"), mem, id); err != nil {
		t.Fatal(err)
	}
	a := arrayOf(t, g, rdf.IRI("s"), rdf.IRI("p"))
	v, _ := a.At(1)
	if v.Intval() != 8 {
		t.Fatalf("got %v", v)
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
