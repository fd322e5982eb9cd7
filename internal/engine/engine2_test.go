package engine

import (
	"strings"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
	"scisparql/internal/storage"
)

func TestNestedOptional(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n ?m ?f WHERE {
  ?p foaf:name ?n .
  OPTIONAL {
    ?p foaf:knows ?q .
    OPTIONAL { ?q foaf:mbox ?m }
    ?q foaf:name ?f .
  }
} ORDER BY ?n ?f`)
	// Alice knows Bob (has mbox) and Daniel (no mbox); Bob knows Alice;
	// Cindy and Daniel know nobody.
	if res.Len() != 5 {
		t.Fatalf("rows %d: %v", res.Len(), res.Rows)
	}
	if res.Get(0, "f").(rdf.String).Val != "Bob" || res.Get(0, "m") == nil {
		t.Fatalf("%v", res.Rows[0])
	}
	if res.Get(1, "f").(rdf.String).Val != "Daniel" || res.Get(1, "m") != nil {
		t.Fatalf("%v", res.Rows[1])
	}
}

func TestOptionalFilterOnOuterVar(t *testing.T) {
	e := newEngine(t, foafData)
	// The optional's filter references the outer ?a: the optional part
	// matches only when age > 26.
	res := query(t, e, prefixes+`
SELECT ?n ?f WHERE {
  ?p foaf:name ?n ; ex:age ?a .
  OPTIONAL { ?p foaf:knows ?q . ?q foaf:name ?f FILTER (?a > 26) }
} ORDER BY ?n ?f`)
	for i := 0; i < res.Len(); i++ {
		n := res.Get(i, "n").(rdf.String).Val
		if n == "Bob" && res.Get(i, "f") != nil {
			t.Fatalf("Bob is 25; optional must not match: %v", res.Rows[i])
		}
		if n == "Alice" && res.Get(i, "f") == nil {
			t.Fatalf("Alice is 30; optional must match: %v", res.Rows[i])
		}
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:a ex:g 1 ; ex:v 2 . ex:b ex:g 1 ; ex:v 1 . ex:c ex:g 0 ; ex:v 9 .
`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?s WHERE { ?s ex:g ?g ; ex:v ?v } ORDER BY ?g DESC(?v)`)
	want := []string{"http://ex/a", "http://ex/b", "http://ex/c"}
	// g=0 first (c), then g=1 sorted by v desc (a then b)? No: ORDER BY
	// ?g ascending puts c first, then within g=1, v desc gives a(2), b(1).
	want = []string{"http://ex/c", "http://ex/a", "http://ex/b"}
	for i, w := range want {
		if res.Rows[i][0] != rdf.IRI(w) {
			t.Fatalf("row %d = %v, want %s", i, res.Rows[i][0], w)
		}
	}
}

func TestOffsetBeyondEnd(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`SELECT ?p WHERE { ?p a foaf:Person } OFFSET 100`)
	if res.Len() != 0 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestPathBothEndpointsUnbound(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:a ex:next ex:b . ex:b ex:next ex:c .
`)
	res := query(t, e, `PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:next+ ?y } ORDER BY ?x ?y`)
	// a->b, a->c, b->c.
	if res.Len() != 3 {
		t.Fatalf("%v", res.Rows)
	}
	res2 := query(t, e, `PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:next? ?x }`)
	// Zero-length: every node pairs with itself (a, b, c).
	if res2.Len() != 3 {
		t.Fatalf("%v", res2.Rows)
	}
}

func TestPathUnderGraphClause(t *testing.T) {
	e := newEngine(t, "")
	g := e.Dataset.Named(rdf.IRI("http://ex/g"), true)
	addTriple(g, rdf.IRI("http://ex/a"), rdf.IRI("http://ex/n"), rdf.IRI("http://ex/b"))
	addTriple(g, rdf.IRI("http://ex/b"), rdf.IRI("http://ex/n"), rdf.IRI("http://ex/c"))
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?y WHERE { GRAPH <http://ex/g> { ex:a ex:n+ ?y } }`)
	if res.Len() != 2 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestConstructWithBlankTemplate(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
CONSTRUCT { ?p ex:contact [ ex:name ?n ] } WHERE { ?p foaf:name ?n }`)
	// 4 persons x 2 triples each; blank nodes fresh per solution.
	if res.Graph.Size() != 8 {
		t.Fatalf("size %d", res.Graph.Size())
	}
	blanks := map[string]bool{}
	res.Graph.MatchTerms(nil, rdf.IRI("http://ex/contact"), nil, func(_, _, o rdf.Term) bool {
		blanks[o.Key()] = true
		return true
	})
	if len(blanks) != 4 {
		t.Fatalf("blank objects %d, want 4 distinct", len(blanks))
	}
}

func TestDescribeVariable(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`DESCRIBE ?p WHERE { ?p foaf:name "Cindy" }`)
	if res.Graph.Size() != 3 {
		t.Fatalf("size %d", res.Graph.Size())
	}
}

func TestValuesUndefJoins(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n ?a WHERE {
  VALUES (?n ?a) { ("Alice" 30) ("Bob" UNDEF) }
  ?p foaf:name ?n ; ex:age ?a .
} ORDER BY ?n`)
	// Alice must match exactly; Bob's UNDEF age joins with his actual 25.
	if res.Len() != 2 || res.Get(1, "a") != rdf.Integer(25) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestAggregateSkipsErrors(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:a ex:v 1 . ex:b ex:v "oops" . ex:c ex:v 3 .
`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?s) WHERE { ?x ex:v ?v }`)
	// COUNT counts all bound values; SUM over a non-numeric is an error
	// -> register unbound.
	if res.Get(0, "n") != rdf.Integer(3) {
		t.Fatalf("count %v", res.Get(0, "n"))
	}
	if res.Get(0, "s") != nil {
		t.Fatalf("sum should be unbound: %v", res.Get(0, "s"))
	}
}

func TestAggregateInOrderBy(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:a ex:g "x" ; ex:v 1 . ex:b ex:g "x" ; ex:v 2 . ex:c ex:g "y" ; ex:v 10 .
`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?g WHERE { ?s ex:g ?g ; ex:v ?v } GROUP BY ?g ORDER BY DESC(SUM(?v))`)
	if res.Len() != 2 || res.Rows[0][0].(rdf.String).Val != "y" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestUnknownFunctionSemantics(t *testing.T) {
	e := newEngine(t, foafData)
	// In a FILTER: expression error -> false -> zero rows (not a query
	// error).
	res := query(t, e, prefixes+`SELECT ?p WHERE { ?p a foaf:Person FILTER (nosuchfn(?p)) }`)
	if res.Len() != 0 {
		t.Fatalf("%v", res.Rows)
	}
	// In a projection: unbound cell.
	res2 := query(t, e, prefixes+`SELECT (nosuchfn(1) AS ?v) WHERE {} `)
	if res2.Get(0, "v") != nil {
		t.Fatalf("%v", res2.Rows)
	}
}

func TestBuiltinArityError(t *testing.T) {
	e := newEngine(t, "")
	res := query(t, e, `SELECT (strlen("a", "b") AS ?v) WHERE {}`)
	if res.Get(0, "v") != nil {
		t.Fatalf("%v", res.Rows)
	}
}

func TestTypePredicates(t *testing.T) {
	e := arrayGraph(t)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (isarray(?a) AS ?ia) (isnumeric(?a) AS ?in) (datatype(?a) AS ?dt)
WHERE { ex:s ex:data ?a }`)
	if res.Get(0, "ia") != rdf.Boolean(true) || res.Get(0, "in") != rdf.Boolean(false) {
		t.Fatalf("%v", res.Rows)
	}
	if res.Get(0, "dt") != rdf.SSDMArray {
		t.Fatalf("%v", res.Get(0, "dt"))
	}
}

func TestArrayShapeMismatchEquality(t *testing.T) {
	e := arrayGraph(t)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?s WHERE { ?s ex:vec ?v FILTER (?v = array(10, 20)) }`)
	if res.Len() != 0 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestApplyBuiltinAndStringFuncRef(t *testing.T) {
	e := newEngine(t, "")
	update(t, e, `DEFINE FUNCTION plus(?a, ?b) AS ?a + ?b`)
	res := query(t, e, `SELECT (apply("plus", 20, 22) AS ?v) WHERE {}`)
	if res.Get(0, "v") != rdf.Integer(42) {
		t.Fatalf("%v", res.Rows)
	}
	// Closures can be applied too.
	res2 := query(t, e, `SELECT (apply(plus(40, _), 2) AS ?v) WHERE {}`)
	if res2.Get(0, "v") != rdf.Integer(42) {
		t.Fatalf("%v", res2.Rows)
	}
}

func TestMinusNoSharedVarsKeepsSolutions(t *testing.T) {
	e := newEngine(t, foafData)
	// MINUS with disjoint domains removes nothing (SPARQL semantics).
	res := query(t, e, prefixes+`
SELECT ?p WHERE { ?p a foaf:Person MINUS { ?x ex:age 25 } }`)
	if res.Len() != 4 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestBatchedPrefetchCorrectness(t *testing.T) {
	// Many scattered derefs across multiple solutions and arrays: the
	// batched APR path must produce the same values as resident arrays.
	mem := storage.NewMemory()
	e := newEngine(t, "")
	g := e.Dataset.Default
	for i := 1; i <= 3; i++ {
		data := make([]float64, 100)
		for j := range data {
			data[j] = float64(i*1000 + j)
		}
		a, _ := array.FromFloats(data, 100)
		id, err := mem.Store(a, 4)
		if err != nil {
			t.Fatal(err)
		}
		opened, err := mem.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		addTriple(g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/d"), rdf.NewArray(opened))
	}
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (?a[7] + ?a[93] AS ?v) WHERE { ex:s ex:d ?a } ORDER BY ?v`)
	if res.Len() != 3 {
		t.Fatalf("%v", res.Rows)
	}
	if n, _ := rdf.Numeric(res.Rows[0][0]); n.Float() != 1006+1092 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestUpdateErrorPaths(t *testing.T) {
	e := newEngine(t, "")
	bad := []string{
		`PREFIX ex: <http://ex/> DELETE DATA { _:b ex:p 1 }`,
	}
	for _, src := range bad {
		st, err := sparql.ParseStatement(src)
		if err != nil {
			continue // parser may reject it instead
		}
		if _, err := e.Update(st); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestStrAndIRIBuiltins(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT (str(ex:alice) AS ?s) (iri(concat("http://ex/", "bob")) AS ?i) WHERE {}`)
	if res.Get(0, "s").(rdf.String).Val != "http://ex/alice" {
		t.Fatalf("%v", res.Rows)
	}
	if res.Get(0, "i") != rdf.IRI("http://ex/bob") {
		t.Fatalf("%v", res.Rows)
	}
}

func TestSubstrReplace(t *testing.T) {
	e := newEngine(t, "")
	res := query(t, e, `
SELECT (substr("scientific", 1, 3) AS ?a) (substr("sparql", 4) AS ?b)
       (replace("a-b-c", "-", "+") AS ?c) WHERE {}`)
	if res.Get(0, "a").(rdf.String).Val != "sci" {
		t.Fatalf("%v", res.Rows)
	}
	if res.Get(0, "b").(rdf.String).Val != "rql" {
		t.Fatalf("%v", res.Rows)
	}
	if res.Get(0, "c").(rdf.String).Val != "a+b+c" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestLangAndStrlenFilters(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:s ex:label "hej"@sv , "hello"@en , "plain" .
`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?l WHERE { ex:s ex:label ?l FILTER (lang(?l) = "sv") }`)
	if res.Len() != 1 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestNumericBuiltinsPreserveInt(t *testing.T) {
	e := newEngine(t, "")
	res := query(t, e, `SELECT (abs(-5) AS ?a) (floor(2.7) AS ?f) (round(2.5) AS ?r) WHERE {}`)
	if res.Get(0, "a") != rdf.Integer(5) {
		t.Fatalf("%v", res.Get(0, "a"))
	}
	if res.Get(0, "f") != rdf.Float(2) || res.Get(0, "r") != rdf.Float(3) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestGroupConcatDefaultSeparator(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:s ex:t "a" . ex:s ex:t "b" .
`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (GROUP_CONCAT(?t) AS ?all) WHERE { ?s ex:t ?t }`)
	got := res.Get(0, "all").(rdf.String).Val
	if !strings.Contains(got, " ") {
		t.Fatalf("%q", got)
	}
}

func TestDatasetUpdateIntoNamedGraph(t *testing.T) {
	e := newEngine(t, "")
	st, err := sparql.ParseStatement(`
PREFIX ex: <http://ex/>
INSERT DATA { GRAPH ex:g { ex:s ex:p 1 } }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Update(st); err != nil {
		t.Fatal(err)
	}
	res := query(t, e, `SELECT ?v WHERE { GRAPH <http://ex/g> { ?s ?p ?v } }`)
	if res.Len() != 1 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestWithGraphModify(t *testing.T) {
	e := newEngine(t, "")
	update(t, e, `PREFIX ex: <http://ex/> INSERT DATA { GRAPH ex:g { ex:s ex:status "old" } }`)
	st, err := sparql.ParseStatement(`
PREFIX ex: <http://ex/>
WITH ex:g DELETE { ?s ex:status "old" } INSERT { ?s ex:status "new" } WHERE { ?s ex:status "old" }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Update(st); err != nil {
		t.Fatal(err)
	}
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?s WHERE { GRAPH ex:g { ?s ex:status "new" } }`)
	if res.Len() != 1 {
		t.Fatalf("%v", res.Rows)
	}
}
