package relrdf

import (
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/engine"
	"scisparql/internal/loader"
	"scisparql/internal/rdf"
	"scisparql/internal/relstore"
	"scisparql/internal/sparql"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	st, err := New(relstore.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSaveLoadAllValueTypes(t *testing.T) {
	st := newStore(t)
	g := rdf.NewGraph()
	s := rdf.IRI("http://ex/s")
	a, _ := array.FromFloats([]float64{1, 2, 3, 4}, 2, 2)
	addTriple(g, s, rdf.IRI("http://ex/iri"), rdf.IRI("http://ex/o"))
	addTriple(g, s, rdf.IRI("http://ex/blank"), rdf.Blank("b1"))
	addTriple(g, s, rdf.IRI("http://ex/str"), rdf.String{Val: "hej", Lang: "sv"})
	addTriple(g, s, rdf.IRI("http://ex/int"), rdf.Integer(-5))
	addTriple(g, s, rdf.IRI("http://ex/float"), rdf.Float(2.5))
	addTriple(g, s, rdf.IRI("http://ex/bool"), rdf.Boolean(true))
	addTriple(g, s, rdf.IRI("http://ex/when"), rdf.DateTime{T: time.Date(2026, 7, 4, 1, 2, 3, 0, time.UTC)})
	addTriple(g, s, rdf.IRI("http://ex/typed"), rdf.Typed{Lexical: "x", Datatype: rdf.IRI("http://dt")})
	addTriple(g, s, rdf.IRI("http://ex/arr"), rdf.NewArray(a))
	addTriple(g, rdf.Blank("sub"), rdf.IRI("http://ex/int"), rdf.Integer(1))

	n, err := st.SaveGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("saved %d", n)
	}

	g2 := rdf.NewGraph()
	m, err := st.LoadGraph(g2)
	if err != nil {
		t.Fatal(err)
	}
	if m != 10 || g2.Size() != 10 {
		t.Fatalf("loaded %d, size %d", m, g2.Size())
	}
	// Spot checks.
	if !g2.Has(s, rdf.IRI("http://ex/str"), rdf.String{Val: "hej", Lang: "sv"}) {
		t.Fatal("string lost")
	}
	if !g2.Has(s, rdf.IRI("http://ex/int"), rdf.Integer(-5)) {
		t.Fatal("int lost")
	}
	// The array came back as a lazy proxy with identical contents.
	var loaded *array.Array
	g2.MatchTerms(s, rdf.IRI("http://ex/arr"), nil, func(_, _, o rdf.Term) bool {
		loaded = o.(rdf.Array).A
		return true
	})
	if loaded == nil || loaded.Base.Resident() {
		t.Fatal("array should be proxied")
	}
	eq, err := array.Equal(a, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("array contents differ")
	}
	// DateTime survived.
	found := false
	g2.MatchTerms(s, rdf.IRI("http://ex/when"), nil, func(_, _, o rdf.Term) bool {
		if dt, ok := o.(rdf.DateTime); ok && dt.T.Second() == 3 {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("dateTime lost")
	}
}

func TestRoundTripThenQuery(t *testing.T) {
	st := newStore(t)
	g := rdf.NewGraph()
	if err := sparql.ParseTurtle(`
@prefix ex: <http://ex/> .
ex:r1 a ex:Run ; ex:temp 300 ; ex:series (1 2 3 4 5 6 7 8) .
ex:r2 a ex:Run ; ex:temp 280 ; ex:series (10 20 30 40 50 60 70 80) .
`, g); err != nil {
		t.Fatal(err)
	}
	// Consolidate collections first so arrays store as arrays.
	if _, err := loader.ConsolidateCollections(g); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveGraph(g, 2); err != nil {
		t.Fatal(err)
	}

	// Load into a fresh engine and query end-to-end.
	ds2 := rdf.NewDataset()
	if _, err := st.LoadGraph(ds2.Default); err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(ds2)
	res, err := e2.QueryString(`PREFIX ex: <http://ex/>
SELECT (asum(?s) AS ?total) WHERE { ?r ex:temp 300 ; ex:series ?s }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := rdf.Numeric(res.Get(0, "total")); !ok || n.Intval() != 36 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestAlreadyProxiedArraysKeepTheirID(t *testing.T) {
	st := newStore(t)
	a, _ := array.FromInts([]int64{1, 2, 3}, 3)
	id, err := st.Arrays.Store(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	proxied, err := st.Arrays.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph()
	addTriple(g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/d"), rdf.NewArray(proxied))
	if _, err := st.SaveGraph(g, 2); err != nil {
		t.Fatal(err)
	}
	// No duplicate array rows: the existing ID was reused.
	if res, err := st.DB.Exec(`SELECT COUNT(*) FROM arrays`); err != nil || res.Rows[0][0].Int() != 1 {
		t.Fatalf("arrays table: %v (%v)", res, err)
	}
}

func TestNodeKeyErrors(t *testing.T) {
	if _, err := nodeKey(rdf.Integer(1)); err == nil {
		t.Fatal("literal subject should fail")
	}
	if _, err := nodeFromKey("garbage"); err == nil {
		t.Fatal("corrupt key should fail")
	}
}

// addTriple commits (s, p, o) to g as a one-triple transaction.
func addTriple(g *rdf.Graph, s, p, o rdf.Term) {
	tx := g.Begin()
	tx.Add(s, p, o)
	tx.Commit()
}
