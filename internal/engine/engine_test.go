package engine

import (
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

const foafData = `
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix ex: <http://ex/> .

ex:alice a foaf:Person ; foaf:name "Alice" ; foaf:knows ex:bob , ex:daniel ; ex:age 30 .
ex:bob a foaf:Person ; foaf:name "Bob" ; foaf:knows ex:alice ; ex:age 25 ; foaf:mbox <mailto:bob@example.org> .
ex:cindy a foaf:Person ; foaf:name "Cindy" ; ex:age 35 .
ex:daniel a foaf:Person ; foaf:name "Daniel" ; ex:age 28 .
`

func newEngine(t *testing.T, ttl string) *Engine {
	t.Helper()
	ds := rdf.NewDataset()
	if ttl != "" {
		if err := sparql.ParseTurtle(ttl, ds.Default); err != nil {
			t.Fatal(err)
		}
	}
	return New(ds)
}

func query(t *testing.T, e *Engine, src string) *Results {
	t.Helper()
	res, err := e.QueryString(src)
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, src)
	}
	return res
}

func update(t *testing.T, e *Engine, src string) int {
	t.Helper()
	st, err := sparql.ParseStatement(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	n, err := e.Update(st)
	if err != nil {
		t.Fatalf("update: %v\n%s", err, src)
	}
	return n
}

const prefixes = `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ex: <http://ex/>
`

func TestSimpleSelect(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`SELECT ?person WHERE { ?person foaf:name "Alice" }`)
	if res.Len() != 1 || res.Get(0, "person") != rdf.IRI("http://ex/alice") {
		t.Fatalf("%v", res.Rows)
	}
}

func TestJoinTwoPatterns(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?fname WHERE {
  ?p foaf:name "Alice" ; foaf:knows ?f .
  ?f foaf:name ?fname .
} ORDER BY ?fname`)
	if res.Len() != 2 {
		t.Fatalf("rows %d", res.Len())
	}
	if res.Rows[0][0].(rdf.String).Val != "Bob" || res.Rows[1][0].(rdf.String).Val != "Daniel" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`SELECT * WHERE { ?p foaf:name ?n } ORDER BY ?n`)
	if len(res.Vars) != 2 || res.Len() != 4 {
		t.Fatalf("%v %d", res.Vars, res.Len())
	}
}

func TestOptional(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n ?mbox WHERE {
  ?p foaf:name ?n .
  OPTIONAL { ?p foaf:mbox ?mbox }
} ORDER BY ?n`)
	if res.Len() != 4 {
		t.Fatalf("rows %d", res.Len())
	}
	// Alice has no mbox -> unbound; Bob has one.
	if res.Get(1, "n").(rdf.String).Val != "Bob" || res.Get(1, "mbox") == nil {
		t.Fatalf("%v", res.Rows)
	}
	if res.Get(0, "mbox") != nil {
		t.Fatalf("Alice should have unbound mbox: %v", res.Rows[0])
	}
}

func TestUnion(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT DISTINCT ?x WHERE {
  { ex:alice foaf:knows ?x } UNION { ?x foaf:knows ex:alice }
}`)
	if res.Len() != 2 {
		t.Fatalf("rows %d: %v", res.Len(), res.Rows)
	}
}

func TestFilterComparison(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n WHERE { ?p foaf:name ?n ; ex:age ?a FILTER (?a >= 30) } ORDER BY ?n`)
	if res.Len() != 2 {
		t.Fatalf("rows %d", res.Len())
	}
	if res.Rows[0][0].(rdf.String).Val != "Alice" || res.Rows[1][0].(rdf.String).Val != "Cindy" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestFilterErrorIsFalse(t *testing.T) {
	e := newEngine(t, foafData)
	// ?a / 0 raises an expression error -> filter false, not query error.
	res := query(t, e, prefixes+`SELECT ?n WHERE { ?p foaf:name ?n ; ex:age ?a FILTER (?a / 0 > 1) }`)
	if res.Len() != 0 {
		t.Fatalf("rows %d", res.Len())
	}
}

func TestFilterLogicalOps(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n WHERE { ?p foaf:name ?n ; ex:age ?a FILTER (?a < 26 || ?a > 34) } ORDER BY ?n`)
	if res.Len() != 2 {
		t.Fatalf("%v", res.Rows)
	}
	res2 := query(t, e, prefixes+`
SELECT ?n WHERE { ?p foaf:name ?n ; ex:age ?a FILTER (?a > 26 && !(?a > 34)) } ORDER BY ?n`)
	if res2.Len() != 2 { // Alice 30, Daniel 28
		t.Fatalf("%v", res2.Rows)
	}
}

func TestBindAndExpressionProjection(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n (?a * 2 AS ?double) WHERE { ?p foaf:name ?n ; ex:age ?a BIND (?a + 1 AS ?next) FILTER (?next = 31) }`)
	if res.Len() != 1 || res.Get(0, "double") != rdf.Integer(60) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestExistsNotExists(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n WHERE { ?p foaf:name ?n FILTER (NOT EXISTS { ?p foaf:knows ?q }) } ORDER BY ?n`)
	if res.Len() != 2 { // Cindy and Daniel know nobody
		t.Fatalf("%v", res.Rows)
	}
}

func TestMinus(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?p WHERE { ?p a foaf:Person MINUS { ?p foaf:knows ex:alice } }`)
	if res.Len() != 3 { // all but Bob
		t.Fatalf("%v", res.Rows)
	}
}

func TestValuesJoin(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n WHERE { VALUES ?n { "Alice" "Cindy" "Nobody" } ?p foaf:name ?n } ORDER BY ?n`)
	if res.Len() != 2 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestPropertyPathSequenceAndInverse(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n WHERE { ex:alice foaf:knows/foaf:name ?n } ORDER BY ?n`)
	if res.Len() != 2 {
		t.Fatalf("%v", res.Rows)
	}
	res2 := query(t, e, prefixes+`SELECT ?x WHERE { ex:bob ^foaf:knows ?x }`)
	if res2.Len() != 1 || res2.Rows[0][0] != rdf.IRI("http://ex/alice") {
		t.Fatalf("%v", res2.Rows)
	}
}

func TestPropertyPathStar(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:a ex:next ex:b . ex:b ex:next ex:c . ex:c ex:next ex:d .
`)
	res := query(t, e, `PREFIX ex: <http://ex/> SELECT ?x WHERE { ex:a ex:next* ?x }`)
	if res.Len() != 4 { // a, b, c, d
		t.Fatalf("%v", res.Rows)
	}
	res2 := query(t, e, `PREFIX ex: <http://ex/> SELECT ?x WHERE { ex:a ex:next+ ?x }`)
	if res2.Len() != 3 {
		t.Fatalf("%v", res2.Rows)
	}
	res3 := query(t, e, `PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:next? ex:b }`)
	if res3.Len() != 2 { // b itself (zero) and a (one step)
		t.Fatalf("%v", res3.Rows)
	}
}

func TestPropertyPathCycle(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:a ex:next ex:b . ex:b ex:next ex:a .
`)
	res := query(t, e, `PREFIX ex: <http://ex/> SELECT ?x WHERE { ex:a ex:next* ?x }`)
	if res.Len() != 2 {
		t.Fatalf("cycle should terminate: %v", res.Rows)
	}
}

func TestPathAlternative(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:s ex:mbox "m" . ex:s ex:email "e" .
`)
	res := query(t, e, `PREFIX ex: <http://ex/> SELECT ?v WHERE { ex:s ex:mbox|ex:email ?v } ORDER BY ?v`)
	if res.Len() != 2 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT (COUNT(*) AS ?n) (AVG(?a) AS ?avg) (MIN(?a) AS ?min) (MAX(?a) AS ?max) (SUM(?a) AS ?sum)
WHERE { ?p ex:age ?a }`)
	if res.Get(0, "n") != rdf.Integer(4) {
		t.Fatalf("count %v", res.Get(0, "n"))
	}
	if res.Get(0, "avg") != rdf.Float(29.5) {
		t.Fatalf("avg %v", res.Get(0, "avg"))
	}
	if res.Get(0, "min") != rdf.Integer(25) || res.Get(0, "max") != rdf.Integer(35) {
		t.Fatalf("min/max %v %v", res.Get(0, "min"), res.Get(0, "max"))
	}
	if res.Get(0, "sum") != rdf.Integer(118) {
		t.Fatalf("sum %v", res.Get(0, "sum"))
	}
}

func TestGroupByHaving(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:e1 ex:dept "a" ; ex:sal 100 .
ex:e2 ex:dept "a" ; ex:sal 200 .
ex:e3 ex:dept "b" ; ex:sal 50 .
`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?dept (SUM(?s) AS ?total) WHERE { ?e ex:dept ?dept ; ex:sal ?s }
GROUP BY ?dept HAVING (SUM(?s) > 100) ORDER BY ?dept`)
	if res.Len() != 1 || res.Get(0, "total") != rdf.Integer(300) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:a ex:tag "x" , "y" . ex:b ex:tag "x" .
`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?s ex:tag ?t }`)
	if res.Get(0, "n") != rdf.Integer(2) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestGroupConcatAndSample(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:a ex:tag "x" . ex:a ex:tag "y" .
`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (GROUP_CONCAT(?t ; SEPARATOR = "|") AS ?all) (SAMPLE(?t) AS ?one) WHERE { ?s ex:tag ?t }`)
	all := res.Get(0, "all").(rdf.String).Val
	if all != "x|y" && all != "y|x" {
		t.Fatalf("%q", all)
	}
	if res.Get(0, "one") == nil {
		t.Fatal("sample unbound")
	}
}

func TestEmptyAggregation(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`SELECT (COUNT(*) AS ?n) WHERE { ?p ex:nonexistent ?v }`)
	if res.Len() != 1 || res.Get(0, "n") != rdf.Integer(0) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`SELECT ?a WHERE { ?p ex:age ?a } ORDER BY DESC(?a) LIMIT 2 OFFSET 1`)
	if res.Len() != 2 || res.Rows[0][0] != rdf.Integer(30) || res.Rows[1][0] != rdf.Integer(28) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`SELECT DISTINCT ?t WHERE { ?p a ?t }`)
	if res.Len() != 1 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestAsk(t *testing.T) {
	e := newEngine(t, foafData)
	if !query(t, e, prefixes+`ASK { ex:alice foaf:knows ex:bob }`).Bool {
		t.Fatal("should be true")
	}
	if query(t, e, prefixes+`ASK { ex:bob foaf:knows ex:cindy }`).Bool {
		t.Fatal("should be false")
	}
}

func TestConstruct(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`CONSTRUCT { ?y ex:knownBy ?x } WHERE { ?x foaf:knows ?y }`)
	if res.Graph.Size() != 3 {
		t.Fatalf("size %d", res.Graph.Size())
	}
	if !res.Graph.Has(rdf.IRI("http://ex/bob"), rdf.IRI("http://ex/knownBy"), rdf.IRI("http://ex/alice")) {
		t.Fatal("missing constructed triple")
	}
}

func TestDescribe(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`DESCRIBE ex:cindy`)
	if res.Graph.Size() != 3 {
		t.Fatalf("size %d", res.Graph.Size())
	}
}

func TestGraphClause(t *testing.T) {
	e := newEngine(t, "")
	g1 := e.Dataset.Named(rdf.IRI("http://ex/g1"), true)
	addTriple(g1, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Integer(1))
	g2 := e.Dataset.Named(rdf.IRI("http://ex/g2"), true)
	addTriple(g2, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Integer(2))

	res := query(t, e, `SELECT ?v WHERE { GRAPH <http://ex/g2> { ?s ?p ?v } }`)
	if res.Len() != 1 || res.Rows[0][0] != rdf.Integer(2) {
		t.Fatalf("%v", res.Rows)
	}
	res2 := query(t, e, `SELECT ?g ?v WHERE { GRAPH ?g { ?s ?p ?v } } ORDER BY ?v`)
	if res2.Len() != 2 || res2.Get(0, "g") != rdf.IRI("http://ex/g1") {
		t.Fatalf("%v", res2.Rows)
	}
}

func TestFromClause(t *testing.T) {
	e := newEngine(t, "")
	g1 := e.Dataset.Named(rdf.IRI("http://ex/g1"), true)
	addTriple(g1, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Integer(1))
	res := query(t, e, `SELECT ?v FROM <http://ex/g1> WHERE { ?s ?p ?v }`)
	if res.Len() != 1 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestBuiltinsStrings(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n WHERE { ?p foaf:name ?n FILTER (strstarts(ucase(?n), "AL") && strlen(?n) = 5) }`)
	if res.Len() != 1 || res.Rows[0][0].(rdf.String).Val != "Alice" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestBuiltinsRegexAndConcat(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT (concat("Hi ", ?n) AS ?greet) WHERE { ?p foaf:name ?n FILTER regex(?n, "^a", "i") }`)
	if res.Len() != 1 || res.Rows[0][0].(rdf.String).Val != "Hi Alice" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestBoundIfCoalesce(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`
SELECT ?n (if(bound(?m), "yes", "no") AS ?has) (coalesce(?m, "none") AS ?mb)
WHERE { ?p foaf:name ?n OPTIONAL { ?p foaf:mbox ?m } } ORDER BY ?n`)
	if res.Get(0, "has").(rdf.String).Val != "no" || res.Get(1, "has").(rdf.String).Val != "yes" {
		t.Fatalf("%v", res.Rows)
	}
	if res.Get(0, "mb").(rdf.String).Val != "none" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestForeignFunctions(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`SELECT (sqrt(16) AS ?r) (pow(2, 8) AS ?p) WHERE {}`)
	if res.Get(0, "r") != rdf.Float(4) || res.Get(0, "p") != rdf.Float(256) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestInsertDeleteData(t *testing.T) {
	e := newEngine(t, "")
	n := update(t, e, `PREFIX ex: <http://ex/> INSERT DATA { ex:s ex:p 1 , 2 }`)
	if n != 2 || e.Dataset.Default.Size() != 2 {
		t.Fatalf("inserted %d", n)
	}
	n = update(t, e, `PREFIX ex: <http://ex/> DELETE DATA { ex:s ex:p 1 }`)
	if n != 1 || e.Dataset.Default.Size() != 1 {
		t.Fatalf("deleted %d", n)
	}
}

func TestModifyDeleteInsertWhere(t *testing.T) {
	e := newEngine(t, `
@prefix ex: <http://ex/> .
ex:a ex:status "old" . ex:b ex:status "old" . ex:c ex:status "done" .
`)
	n := update(t, e, `PREFIX ex: <http://ex/>
DELETE { ?s ex:status "old" } INSERT { ?s ex:status "new" } WHERE { ?s ex:status "old" }`)
	if n != 4 {
		t.Fatalf("changed %d", n)
	}
	res := query(t, e, `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:status "new" }`)
	if res.Len() != 2 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestDefineExpressionFunction(t *testing.T) {
	e := newEngine(t, foafData)
	update(t, e, `PREFIX ex: <http://ex/> DEFINE FUNCTION ex:double(?x) AS ?x * 2`)
	res := query(t, e, prefixes+`SELECT (ex:double(21) AS ?v) WHERE {}`)
	if res.Get(0, "v") != rdf.Integer(42) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestDefineFunctionalView(t *testing.T) {
	e := newEngine(t, foafData)
	update(t, e, prefixes+`DEFINE FUNCTION ex:nameOf(?p) AS SELECT ?n WHERE { ?p foaf:name ?n }`)
	res := query(t, e, prefixes+`SELECT (ex:nameOf(ex:cindy) AS ?n) WHERE {}`)
	if res.Get(0, "n").(rdf.String).Val != "Cindy" {
		t.Fatalf("%v", res.Rows)
	}
}

func TestDefineAggregate(t *testing.T) {
	e := newEngine(t, foafData)
	update(t, e, `DEFINE AGGREGATE spread(?b) AS amax(?b) - amin(?b)`)
	res := query(t, e, prefixes+`SELECT (spread(?a) AS ?s) WHERE { ?p ex:age ?a }`)
	if res.Get(0, "s") != rdf.Integer(10) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestRecursiveViewGuard(t *testing.T) {
	e := newEngine(t, "")
	update(t, e, `DEFINE FUNCTION loop(?x) AS loop(?x)`)
	res := query(t, e, `SELECT (loop(1) AS ?v) WHERE {}`)
	if res.Get(0, "v") != nil {
		t.Fatal("recursive view should yield unbound, not hang")
	}
}

func arrayGraph(t *testing.T) *Engine {
	t.Helper()
	e := newEngine(t, "")
	g := e.Dataset.Default
	m, err := array.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	addTriple(g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/data"), rdf.NewArray(m))
	v, err := array.FromInts([]int64{10, 20, 30}, 3)
	if err != nil {
		t.Fatal(err)
	}
	addTriple(g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/vec"), rdf.NewArray(v))
	return e
}

func TestArrayElementAccess(t *testing.T) {
	e := arrayGraph(t)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (?a[2,3] AS ?v) WHERE { ex:s ex:data ?a }`)
	if res.Get(0, "v") != rdf.Float(6) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestArraySliceAndAggregate(t *testing.T) {
	e := arrayGraph(t)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (asum(?a[1,:]) AS ?row1) (asum(?a[:,1]) AS ?col1) (aavg(?a) AS ?avg)
WHERE { ex:s ex:data ?a }`)
	if res.Get(0, "row1") != rdf.Float(6) {
		t.Fatalf("row1 %v", res.Get(0, "row1"))
	}
	if res.Get(0, "col1") != rdf.Float(5) {
		t.Fatalf("col1 %v", res.Get(0, "col1"))
	}
	if res.Get(0, "avg") != rdf.Float(3.5) {
		t.Fatalf("avg %v", res.Get(0, "avg"))
	}
}

func TestArrayStridedSlice(t *testing.T) {
	e := arrayGraph(t)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (?v[1:2:3] AS ?odd) WHERE { ex:s ex:vec ?v }`)
	a := res.Get(0, "odd").(rdf.Array).A
	if a.Count() != 2 {
		t.Fatalf("count %d", a.Count())
	}
	v0, _ := a.At(0)
	v1, _ := a.At(1)
	if v0.Intval() != 10 || v1.Intval() != 30 {
		t.Fatalf("%v %v", v0, v1)
	}
}

func TestArrayArithmetic(t *testing.T) {
	e := arrayGraph(t)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (asum(?v * 2 + 1) AS ?s) WHERE { ex:s ex:vec ?v }`)
	if res.Get(0, "s") != rdf.Integer(123) {
		t.Fatalf("%v", res.Get(0, "s"))
	}
}

func TestArrayDims(t *testing.T) {
	e := arrayGraph(t)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (adims(?a)[1] AS ?rows) (ndims(?a) AS ?nd) (acount(?a) AS ?n) WHERE { ex:s ex:data ?a }`)
	if res.Get(0, "rows") != rdf.Integer(2) || res.Get(0, "nd") != rdf.Integer(2) || res.Get(0, "n") != rdf.Integer(6) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestArrayEqualityFilter(t *testing.T) {
	e := arrayGraph(t)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT ?s WHERE { ?s ex:vec ?v FILTER (?v = array(10, 20, 30)) }`)
	if res.Len() != 1 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestMapWithClosure(t *testing.T) {
	e := arrayGraph(t)
	update(t, e, `PREFIX ex: <http://ex/> DEFINE FUNCTION ex:scale(?x, ?f) AS ?x * ?f`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (asum(map(ex:scale(_, 3), ?v)) AS ?s) WHERE { ex:s ex:vec ?v }`)
	if res.Get(0, "s") != rdf.Integer(180) {
		t.Fatalf("%v", res.Get(0, "s"))
	}
}

func TestCondenseSecondOrder(t *testing.T) {
	e := arrayGraph(t)
	update(t, e, `DEFINE FUNCTION mymax(?a, ?b) AS if(?a > ?b, ?a, ?b)`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (condense("mymax", ?v) AS ?m) WHERE { ex:s ex:vec ?v }`)
	if res.Get(0, "m") != rdf.Integer(30) {
		t.Fatalf("%v", res.Get(0, "m"))
	}
}

func TestMapMultipleArrays(t *testing.T) {
	e := arrayGraph(t)
	update(t, e, `DEFINE FUNCTION add2(?a, ?b) AS ?a + ?b`)
	res := query(t, e, `PREFIX ex: <http://ex/>
SELECT (asum(map("add2", ?v, ?v)) AS ?s) WHERE { ex:s ex:vec ?v }`)
	if res.Get(0, "s") != rdf.Integer(120) {
		t.Fatalf("%v", res.Get(0, "s"))
	}
}

func TestArrayConstructionBuiltins(t *testing.T) {
	e := newEngine(t, "")
	res := query(t, e, `
SELECT (asum(iota(10)) AS ?s) (acount(afill(0, 3, 4)) AS ?n)
       (asum(transpose(reshape(iota(6), 2, 3))[1,:]) AS ?t)
WHERE {}`)
	if res.Get(0, "s") != rdf.Integer(55) {
		t.Fatalf("iota sum %v", res.Get(0, "s"))
	}
	if res.Get(0, "n") != rdf.Integer(12) {
		t.Fatalf("afill count %v", res.Get(0, "n"))
	}
	// reshape(iota(6),2,3) = [[1 2 3][4 5 6]]; transpose -> [[1 4][2 5][3 6]]; row 1 = [1 4].
	if res.Get(0, "t") != rdf.Integer(5) {
		t.Fatalf("transpose sum %v", res.Get(0, "t"))
	}
}

func TestProjectionErrorYieldsUnbound(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`SELECT ?n (1/0 AS ?bad) WHERE { ?p foaf:name ?n } LIMIT 1`)
	if res.Get(0, "bad") != nil {
		t.Fatalf("%v", res.Rows)
	}
}

func TestJoinOrderAblationSameResults(t *testing.T) {
	e := newEngine(t, foafData)
	q := prefixes + `SELECT ?n WHERE { ?p a foaf:Person . ?p foaf:name ?n . ?p ex:age ?a FILTER (?a > 27) } ORDER BY ?n`
	r1 := query(t, e, q)
	e.DisableJoinOrder = true
	r2 := query(t, e, q)
	if r1.Len() != r2.Len() {
		t.Fatalf("ablation changed results: %d vs %d", r1.Len(), r2.Len())
	}
	for i := range r1.Rows {
		if r1.Rows[i][0] != r2.Rows[i][0] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestClear(t *testing.T) {
	e := newEngine(t, foafData)
	n := update(t, e, `CLEAR DEFAULT`)
	if n == 0 || e.Dataset.Default.Size() != 0 {
		t.Fatalf("cleared %d, size %d", n, e.Dataset.Default.Size())
	}
}

func TestBlankNodesInPatternsAreVariables(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`SELECT ?n WHERE { [] foaf:knows [ foaf:name ?n ] } ORDER BY ?n`)
	if res.Len() != 3 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestInFilter(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`SELECT ?n WHERE { ?p foaf:name ?n ; ex:age ?a FILTER (?a IN (25, 28)) } ORDER BY ?n`)
	if res.Len() != 2 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestVariablePredicate(t *testing.T) {
	e := newEngine(t, foafData)
	res := query(t, e, prefixes+`SELECT DISTINCT ?prop WHERE { ex:cindy ?prop ?v }`)
	if res.Len() != 3 { // type, name, age
		t.Fatalf("%v", res.Rows)
	}
}

// addTriple commits (s, p, o) to g as a one-triple transaction.
func addTriple(g *rdf.Graph, s, p, o rdf.Term) {
	tx := g.Begin()
	tx.Add(s, p, o)
	tx.Commit()
}
