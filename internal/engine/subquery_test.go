package engine

import (
	"fmt"
	"strings"
	"testing"

	"scisparql/internal/rdf"
)

func TestSubSelectJoin(t *testing.T) {
	e := newEngine(t, foafData)
	// Inner query computes the maximum age; outer finds who has it.
	res := query(t, e, prefixes+`
SELECT ?n WHERE {
  ?p foaf:name ?n ; ex:age ?a .
  { SELECT (MAX(?age) AS ?a) WHERE { ?x ex:age ?age } }
}`)
	if res.Len() != 1 || res.Rows[0][0].(rdf.String).Val != "Cindy" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestSubSelectWithLimit(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n WHERE {
  { SELECT ?p WHERE { ?p a foaf:Person } ORDER BY ?p LIMIT 2 }
  ?p foaf:name ?n .
} ORDER BY ?n`)
	if res.Len() != 2 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestSubSelectInUnionBranch(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n WHERE {
  { SELECT ?p WHERE { ?p foaf:name "Alice" } }
  UNION
  { SELECT ?p WHERE { ?p foaf:name "Bob" } }
  ?p foaf:name ?n .
} ORDER BY ?n`)
	if res.Len() != 2 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestSubSelectProjectionScoping(t *testing.T) {
	e := newEngine(t, foafData)
	// ?a is projected by the subquery, ?age is not and must stay
	// invisible outside.
	res := query(t, e, prefixes+`
SELECT ?age WHERE {
  { SELECT (MIN(?x) AS ?a) WHERE { ?p ex:age ?x } }
  OPTIONAL { ?q ex:age ?age FILTER (?age = ?a) }
} LIMIT 1`)
	if res.Len() != 1 || res.Get(0, "age") != rdf.Integer(25) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestFromNamedRestrictsGraphIteration(t *testing.T) {
	e := newEngine(t, "")
	g1 := e.Dataset.Named(rdf.IRI("http://ex/g1"), true)
	addTriple(g1, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Integer(1))
	g2 := e.Dataset.Named(rdf.IRI("http://ex/g2"), true)
	addTriple(g2, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Integer(2))

	// Without FROM NAMED both graphs are visible.
	all := query(t, e, `SELECT ?g WHERE { GRAPH ?g { ?s ?p ?o } }`)
	if all.Len() != 2 {
		t.Fatalf("%v", all.Rows)
	}
	// With FROM NAMED only g1 is.
	restricted := query(t, e, `
SELECT ?g ?o FROM NAMED <http://ex/g1> WHERE { GRAPH ?g { ?s ?p ?o } }`)
	if restricted.Len() != 1 || restricted.Get(0, "o") != rdf.Integer(1) {
		t.Fatalf("%v", restricted.Rows)
	}
	// An explicit GRAPH outside the FROM NAMED set matches nothing.
	none := query(t, e, `
SELECT ?o FROM NAMED <http://ex/g1> WHERE { GRAPH <http://ex/g2> { ?s ?p ?o } }`)
	if none.Len() != 0 {
		t.Fatalf("%v", none.Rows)
	}
}

func TestNegatedPropertySet(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:s ex:a 1 ; ex:b 2 ; ex:c 3 .
`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?v WHERE { ex:s !ex:a ?v } ORDER BY ?v`)
	if res.Len() != 2 || res.Rows[0][0] != rdf.Integer(2) {
		t.Fatalf("%v", res.Rows)
	}
	res2 := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?v WHERE { ex:s !(ex:a|ex:b) ?v }`)
	if res2.Len() != 1 || res2.Rows[0][0] != rdf.Integer(3) {
		t.Fatalf("%v", res2.Rows)
	}
}

func TestNegatedPropertySetInverse(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:x ex:a ex:s . ex:y ex:b ex:s .
`)
	// !(^ex:a) from ex:s matches reversed edges whose predicate is not
	// ex:a: only ex:y.
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?v WHERE { ex:s !(^ex:a) ?v }`)
	if res.Len() != 1 || res.Rows[0][0] != rdf.IRI("http://ex/y") {
		t.Fatalf("%v", res.Rows)
	}
	// Mixed set: forward edges not ex:nothing plus reversed not ex:b.
	res2 := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?v WHERE { ex:s !(ex:zzz|^ex:b) ?v }`)
	if res2.Len() != 1 || res2.Rows[0][0] != rdf.IRI("http://ex/x") {
		t.Fatalf("%v", res2.Rows)
	}
}

func TestNegatedPropertySetWithA(t *testing.T) {
	e := newEngine(t, foafData)
	// All edges from alice except rdf:type and foaf:knows.
	res := query(t, e, prefixes+`
SELECT ?v WHERE { ex:alice !(a|foaf:knows) ?v } ORDER BY ?v`)
	if res.Len() != 2 { // name + age
		t.Fatalf("%v", res.Rows)
	}
}

func TestExplain(t *testing.T) {
	e := newEngine(t, foafData)
	out, err := e.ExplainString(prefixes + `
SELECT ?n WHERE {
  ?p a foaf:Person ; foaf:name ?n ; ex:age ?a .
  OPTIONAL { ?p foaf:mbox ?m }
  FILTER (?a > 26)
  { ?p foaf:knows ?q } UNION { ?q foaf:knows ?p }
} ORDER BY ?n LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bgp", "est", "optional", "filter", "union", "order by", "limit 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if _, err := e.ExplainString(`BROKEN`); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestLimitPushdownStopsEarly(t *testing.T) {
	// Build a graph large enough that full enumeration would be
	// noticeable, then verify LIMIT returns the right count (the early
	// stop itself is observable through errStop semantics: the query
	// must still succeed).
	ds := rdf.NewDataset()
	g := ds.Default
	for i := 0; i < 5000; i++ {
		addTriple(g, rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.Integer(int64(i)))
	}
	e := New(ds)
	res, err := e.QueryString(`SELECT ?s WHERE { ?s <http://ex/p> ?v } LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows %d", res.Len())
	}
	// OFFSET+LIMIT combination.
	res2, err := e.QueryString(`SELECT ?s WHERE { ?s <http://ex/p> ?v } OFFSET 2 LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 2 {
		t.Fatalf("rows %d", res2.Len())
	}
	// LIMIT 0.
	res3, err := e.QueryString(`SELECT ?s WHERE { ?s <http://ex/p> ?v } LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Len() != 0 {
		t.Fatalf("rows %d", res3.Len())
	}
}

func TestFilterCostOrdering(t *testing.T) {
	e := newEngine(t, foafData)
	order := []string{}
	e.Funcs.RegisterForeignCost("cheapcheck", 1, 1, 1, func(args []rdf.Term) (rdf.Term, error) {
		order = append(order, "cheap")
		return rdf.Boolean(true), nil
	})
	e.Funcs.RegisterForeignCost("pricycheck", 1, 1, 500, func(args []rdf.Term) (rdf.Term, error) {
		order = append(order, "pricy")
		return rdf.Boolean(true), nil
	})
	// Written pricy-first: the optimizer must flip them.
	res := query(t, e, prefixes+`
SELECT ?n WHERE {
  ?p foaf:name ?n .
  FILTER (pricycheck(?n))
  FILTER (cheapcheck(?n))
}`)
	if res.Len() != 4 {
		t.Fatalf("%v", res.Rows)
	}
	// Per solution the cheap filter must run before the pricy one.
	if len(order) != 8 {
		t.Fatalf("evaluation order %v", order)
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "cheap" || order[i+1] != "pricy" {
			t.Fatalf("order %v", order)
		}
	}
}
