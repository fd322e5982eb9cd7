package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"

	"scisparql/internal/difftest"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// vecTestEngine builds a dataset exercising every vectorizable shape:
// multi-pattern joins over shared variables, repeated objects, numeric
// values stored as both integers and floats (so ID-equality and
// value-equality diverge), plus sparse predicates for OPTIONAL/UNION.
func vecTestEngine(t testing.TB) *Engine {
	t.Helper()
	ds := rdf.NewDataset()
	g := ds.Default
	person := rdf.IRI("http://ex/Person")
	for i := 0; i < 30; i++ {
		s := rdf.IRI("http://ex/p" + itoa(i))
		addTriple(g, s, rdf.IRI("http://ex/type"), person)
		if i%2 == 0 {
			addTriple(g, s, rdf.IRI("http://ex/age"), rdf.Integer(int64(20+i%7)))
		} else {
			// Odd subjects carry float ages: FILTER(?age = 23) must
			// match 23.0 via value equality even though the IDs differ.
			addTriple(g, s, rdf.IRI("http://ex/age"), rdf.Float(float64(20+i%7)))
		}
		addTriple(g, s, rdf.IRI("http://ex/knows"), rdf.IRI("http://ex/p"+itoa((i+3)%30)))
		if i%3 == 0 {
			addTriple(g, s, rdf.IRI("http://ex/email"), rdf.String{Val: "p" + itoa(i) + "@ex.org"})
		}
		if i%5 == 0 {
			addTriple(g, s, rdf.IRI("http://ex/boss"), rdf.IRI("http://ex/p"+itoa((i+1)%30)))
		}
	}
	// A self-loop so patterns with a repeated variable (?x knows ?x)
	// have a hit.
	addTriple(g, rdf.IRI("http://ex/loop"), rdf.IRI("http://ex/knows"), rdf.IRI("http://ex/loop"))
	addBiblio(g, 36)
	return New(ds)
}

// addBiblio adds an SP²Bench-shaped bibliography under http://bench/:
// docs articles, each dated, placed in one of 12 journals and credited
// to 3 of docs/4+1 named authors, with an abstract on every third. It
// shares no predicate with the ex: data, so ex: queries do not see it.
func addBiblio(g *rdf.Graph, docs int) {
	b := func(local string) rdf.IRI { return rdf.IRI("http://bench/" + local) }
	nAuthors := docs/4 + 1
	for a := 0; a < nAuthors; a++ {
		addTriple(g, b("author"+itoa(a)), b("type"), b("Person"))
		addTriple(g, b("author"+itoa(a)), b("name"), rdf.String{Val: "Author " + itoa(a)})
	}
	for d := 0; d < docs; d++ {
		doc := b("doc" + itoa(d))
		addTriple(g, doc, b("type"), b("Article"))
		addTriple(g, doc, b("journal"), b("journal"+itoa(d%12)))
		addTriple(g, doc, b("year"), rdf.Integer(int64(1990+d%20)))
		addTriple(g, doc, b("title"), rdf.String{Val: "Title " + itoa(d)})
		for k := 0; k < 3; k++ {
			addTriple(g, doc, b("creator"), b("author"+itoa((d*3+k*7)%nAuthors)))
		}
		if d%3 == 0 {
			addTriple(g, doc, b("abstract"), rdf.String{Val: "Abstract of doc " + itoa(d)})
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// vecEquivQueries is the batch-vs-tuple corpus: every query runs on
// both paths and the result sets must be identical.
var vecEquivQueries = []string{
	// Plain scan + projection.
	`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a }`,
	// SELECT *.
	`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:age ?a . ?s ex:email ?e }`,
	// Join-heavy: three patterns over shared variables.
	`PREFIX ex: <http://ex/> SELECT ?s ?o ?a WHERE { ?s ex:knows ?o . ?o ex:age ?a . ?s ex:type ex:Person }`,
	// FILTER with value-typed comparison (integer vs float ages).
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER(?a = 23) }`,
	`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a FILTER(?a > 21 && ?a <= 25) }`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER(?a + 1 >= 24) }`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER(!(?a < 23)) }`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a FILTER(-?a < -22) }`,
	// Unvectorizable filter (function call): must fall to the suffix.
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:email ?e FILTER(STRLEN(?e) > 9) }`,
	// DISTINCT over a projected subset.
	`PREFIX ex: <http://ex/> SELECT DISTINCT ?a WHERE { ?s ex:age ?a }`,
	// OPTIONAL (tuple suffix after the vectorized prefix).
	`PREFIX ex: <http://ex/> SELECT ?s ?e WHERE { ?s ex:age ?a OPTIONAL { ?s ex:email ?e } }`,
	// UNION.
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { { ?s ex:email ?e } UNION { ?s ex:boss ?b } }`,
	// ORDER BY + LIMIT/OFFSET (deterministic order, so rows compare 1:1).
	`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a } ORDER BY ?a ?s LIMIT 7 OFFSET 3`,
	// LIMIT pushdown without ORDER BY: compare row counts only (set below).
	// Repeated variable inside one pattern (self-loop).
	`PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:knows ?x }`,
	// Constant absent from the dictionary: zero rows, both paths.
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a . ?s ex:missing ?m }`,
	// Property path: entirely tuple-path (fallback must not break).
	`PREFIX ex: <http://ex/> SELECT ?s ?o WHERE { ?s ex:knows+ ?o . ?s ex:boss ?b }`,
	// Aggregation consumes the vectorized WHERE stream.
	`PREFIX ex: <http://ex/> SELECT (COUNT(?s) AS ?n) (AVG(?a) AS ?avg) WHERE { ?s ex:age ?a }`,
	`PREFIX ex: <http://ex/> SELECT ?a (COUNT(?s) AS ?n) WHERE { ?s ex:age ?a } GROUP BY ?a ORDER BY ?a`,
	// Fully-bound join probe (semi-join) via shared vars both sides.
	`PREFIX ex: <http://ex/> SELECT ?s ?o WHERE { ?s ex:knows ?o . ?o ex:knows ?s }`,
	// MINUS suffix.
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a MINUS { ?s ex:email ?e } }`,

	// --- batch-native OPTIONAL ---
	// Left-outer join: unmatched subjects keep ?e unbound.
	`PREFIX ex: <http://ex/> SELECT ?s ?a ?e WHERE { ?s ex:age ?a OPTIONAL { ?s ex:email ?e } }`,
	// Two sequential OPTIONALs (second probes a non-nullable column).
	`PREFIX ex: <http://ex/> SELECT ?s ?e ?b WHERE { ?s ex:type ex:Person OPTIONAL { ?s ex:email ?e } OPTIONAL { ?s ex:boss ?b } }`,
	// FILTER inside OPTIONAL: the filter constrains the join, not the
	// outer rows — subjects whose age fails it survive with ?a2 unbound.
	`PREFIX ex: <http://ex/> SELECT ?s ?a2 WHERE { ?s ex:type ex:Person OPTIONAL { ?s ex:age ?a2 FILTER(?a2 > 23) } }`,
	// Nested OPTIONAL (inner optional makes the group unlowerable —
	// must fall back cleanly).
	`PREFIX ex: <http://ex/> SELECT ?s ?e ?b WHERE { ?s ex:type ex:Person OPTIONAL { ?s ex:email ?e OPTIONAL { ?s ex:boss ?b } } }`,
	// FILTER after OPTIONAL referencing the nullable column: unbound
	// rows make the comparison error out and drop (tuple semantics).
	`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:type ex:Person OPTIONAL { ?s ex:age ?a } FILTER(?a >= 24) }`,

	// --- batch-native UNION ---
	// Overlapping projections.
	`PREFIX ex: <http://ex/> SELECT ?s ?x WHERE { { ?s ex:email ?x } UNION { ?s ex:boss ?x } }`,
	// Disjoint projections: each branch pads the other's columns.
	`PREFIX ex: <http://ex/> SELECT ?s ?e ?t ?b WHERE { { ?s ex:email ?e } UNION { ?t ex:boss ?b } }`,
	// Union followed by a join on the shared (non-nullable) variable.
	`PREFIX ex: <http://ex/> SELECT ?s ?x ?a WHERE { { ?s ex:email ?x } UNION { ?s ex:boss ?x } . ?s ex:age ?a }`,
	// Union with a filtered branch.
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { { ?s ex:age ?a FILTER(?a > 24) } UNION { ?s ex:boss ?b } }`,
	// Union not in first position: falls back (pattern before union).
	`PREFIX ex: <http://ex/> SELECT ?s ?x WHERE { ?s ex:age ?a . { ?s ex:email ?x } UNION { ?s ex:boss ?x } }`,

	// --- batch-native aggregation ---
	// GROUP BY with HAVING over a register.
	`PREFIX ex: <http://ex/> SELECT ?a (COUNT(?s) AS ?n) WHERE { ?s ex:age ?a } GROUP BY ?a HAVING (COUNT(?s) > 2)`,
	// Multi-register numeric fold over a join (int and float ages mix).
	`PREFIX ex: <http://ex/> SELECT ?o (SUM(?a) AS ?t) (MIN(?a) AS ?mn) (MAX(?a) AS ?mx) WHERE { ?s ex:knows ?o . ?s ex:age ?a } GROUP BY ?o`,
	// COUNT(DISTINCT): 23 and 23.0 are distinct terms on both paths.
	`PREFIX ex: <http://ex/> SELECT (COUNT(DISTINCT ?a) AS ?n) WHERE { ?s ex:age ?a }`,
	// Aggregation over a nullable column (COUNT skips unbound) and a
	// never-bound one (SUM of nothing is 0).
	`PREFIX ex: <http://ex/> SELECT (COUNT(?e) AS ?n) (SUM(?zz) AS ?sz) WHERE { ?s ex:age ?a OPTIONAL { ?s ex:email ?e } }`,
	// GROUP BY on a nullable column: the unbound key forms its own group.
	`PREFIX ex: <http://ex/> SELECT ?e (COUNT(?s) AS ?n) WHERE { ?s ex:age ?a OPTIONAL { ?s ex:email ?e } } GROUP BY ?e`,
	// SUM/MIN over non-numeric values: register left unbound, both paths.
	`PREFIX ex: <http://ex/> SELECT (SUM(?e) AS ?x) (MIN(?e) AS ?m) WHERE { ?s ex:email ?e }`,
	// SAMPLE over a single-valued key, AVG with HAVING on the average.
	`PREFIX ex: <http://ex/> SELECT ?s (SAMPLE(?a) AS ?one) WHERE { ?s ex:age ?a } GROUP BY ?s`,
	`PREFIX ex: <http://ex/> SELECT ?o (AVG(?a) AS ?avg) WHERE { ?s ex:knows ?o . ?s ex:age ?a } GROUP BY ?o HAVING (AVG(?a) >= 23)`,
	// Aggregation over a union stream.
	`PREFIX ex: <http://ex/> SELECT ?s (COUNT(?x) AS ?n) WHERE { { ?s ex:email ?x } UNION { ?s ex:boss ?x } } GROUP BY ?s`,
	// GROUP_CONCAT declines the batch fold (order-sensitive): compare as
	// sets of concatenated singleton groups.
	`PREFIX ex: <http://ex/> SELECT ?s (GROUP_CONCAT(?e) AS ?all) WHERE { ?s ex:email ?e } GROUP BY ?s`,

	// --- SP²Bench shapes over addBiblio (the query texts of the retired
	// experiments E9 and E11) ---
	// Co-authorship self-join, 9 rows per document.
	`PREFIX b: <http://bench/> SELECT ?d ?a1 ?a2 WHERE { ?d b:creator ?a1 . ?d b:creator ?a2 }`,
	// scan -> join -> filter pipeline.
	`PREFIX b: <http://bench/> SELECT ?d ?j ?y WHERE { ?d b:type b:Article . ?d b:journal ?j . ?d b:year ?y FILTER(?y >= 1995) }`,
	// Journal-mates join with wide fan-out.
	`PREFIX b: <http://bench/> SELECT ?a ?j ?e WHERE { ?d b:creator ?a . ?d b:journal ?j . ?e b:journal ?j }`,
	`PREFIX b: <http://bench/> SELECT DISTINCT ?a WHERE { ?d b:type b:Article . ?d b:creator ?a }`,
	// Q2 shape: OPTIONAL carried by a third of the documents, ordered
	// with ties (compared as a set here).
	`PREFIX b: <http://bench/> SELECT ?d ?y ?abs WHERE { ?d b:type b:Article . ?d b:year ?y OPTIONAL { ?d b:abstract ?abs } } ORDER BY ?y`,
	// Q4/Q5 shape: union of two labelled kinds joined on the shared variable.
	`PREFIX b: <http://bench/> SELECT ?x ?n ?t WHERE { { ?x b:title ?n } UNION { ?x b:name ?n } . ?x b:type ?t }`,
	`PREFIX b: <http://bench/> SELECT ?j (COUNT(?d) AS ?n) (AVG(?y) AS ?avg) WHERE { ?d b:journal ?j . ?d b:year ?y } GROUP BY ?j HAVING (COUNT(?d) > 2)`,
	// Top-K with ties on the key: both paths keep the first arrivals.
	`PREFIX b: <http://bench/> SELECT ?d ?y WHERE { ?d b:type b:Article . ?d b:year ?y } ORDER BY DESC(?y) LIMIT 10`,
}

// vecEquivOrdered are corpus queries whose row ORDER must also match
// the tuple path exactly (ORDER BY present, ties resolved by stable
// sort over the same enumeration order).
var vecEquivOrdered = []string{
	// Ties on ?a broken by ?s; mixed int/float keys compare by value.
	`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a } ORDER BY ?a ?s`,
	`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a } ORDER BY DESC(?a) ?s`,
	// Ties NOT fully broken: stable order must be preserved.
	`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a } ORDER BY ?a`,
	// Sort key not projected (hidden sort column).
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a } ORDER BY DESC(?a) ?s`,
	// Unbound (nullable) sort keys sort first ascending, last descending.
	`PREFIX ex: <http://ex/> SELECT ?s ?e WHERE { ?s ex:type ex:Person OPTIONAL { ?s ex:email ?e } } ORDER BY ?e ?s`,
	`PREFIX ex: <http://ex/> SELECT ?s ?e WHERE { ?s ex:type ex:Person OPTIONAL { ?s ex:email ?e } } ORDER BY DESC(?e) ?s`,
	// Top-K pushdown: ORDER BY + LIMIT (and OFFSET) under the heap bound.
	`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a } ORDER BY DESC(?a) ?s LIMIT 5`,
	`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a } ORDER BY ?a ?s LIMIT 4 OFFSET 2`,
	// Top-K with ties not fully broken: must keep the first arrivals.
	`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a } ORDER BY ?a LIMIT 6`,
	// DISTINCT + ORDER BY with all sort keys projected.
	`PREFIX ex: <http://ex/> SELECT DISTINCT ?a WHERE { ?s ex:age ?a } ORDER BY ?a`,
	// ORDER BY over grouped output (aggregation feeds the sort).
	`PREFIX ex: <http://ex/> SELECT ?a (COUNT(?s) AS ?n) WHERE { ?s ex:age ?a } GROUP BY ?a ORDER BY DESC(?n) ?a`,
}

func runModes(t *testing.T, src string, ordered bool) {
	t.Helper()
	q, err := sparql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	tuple := vecTestEngine(t)
	tuple.BatchSize = -1
	batchDefault := vecTestEngine(t)
	batchSmall := vecTestEngine(t) // tiny batches stress flush boundaries
	batchSmall.BatchSize = 3
	batchOne := vecTestEngine(t) // degenerate single-row batches
	batchOne.BatchSize = 1

	want, err := tuple.Query(q)
	if err != nil {
		t.Fatalf("tuple %q: %v", src, err)
	}
	for name, e := range map[string]*Engine{"batch-1024": batchDefault, "batch-3": batchSmall, "batch-1": batchOne} {
		got, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s %q: %v", name, src, err)
		}
		if d := resultsDiff(want, got, ordered); d != "" {
			t.Fatalf("%s %q: %s", name, src, d)
		}
	}
}

// resultsDiff describes how a batch result differs from the tuple
// path's, or returns "" when they agree: as bags, or row for row when
// ordered.
func resultsDiff(want, got *Results, ordered bool) string {
	wantVars := append([]string(nil), want.Vars...)
	gotVars := append([]string(nil), got.Vars...)
	sort.Strings(wantVars)
	sort.Strings(gotVars)
	if strings.Join(wantVars, ",") != strings.Join(gotVars, ",") {
		return fmt.Sprintf("vars %v vs tuple %v", got.Vars, want.Vars)
	}
	if ordered {
		// Row order must match exactly.
		if len(got.Rows) != len(want.Rows) {
			return fmt.Sprintf("%d rows vs tuple %d", len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for _, v := range want.Vars {
				if wv, gv := want.Get(i, v), got.Get(i, v); !termEq(wv, gv) {
					return fmt.Sprintf("row %d var %s differs: tuple %v, batch %v", i, v, wv, gv)
				}
			}
		}
		return ""
	}
	w, g := difftest.Canon(want.Rows), difftest.Canon(got.Rows)
	if len(w) != len(g) {
		return fmt.Sprintf("%d rows vs tuple %d\ntuple: %v\nbatch: %v", len(g), len(w), w, g)
	}
	for i := range w {
		if w[i] != g[i] {
			return fmt.Sprintf("row %d differs:\ntuple: %s\nbatch: %s", i, w[i], g[i])
		}
	}
	return ""
}

// TestVecPooledColumnsUnderConcurrency: every run borrows its output
// columns from one pool that all goroutines share, so a column returned
// twice, or before the run's last flush, hands one slab to two live
// batches. Four goroutines run both corpora, each query twice, on
// shared engines at batch sizes 1, 3 and 1024, and every answer must
// match the tuple path's.
func TestVecPooledColumnsUnderConcurrency(t *testing.T) {
	tuple := vecTestEngine(t)
	tuple.BatchSize = -1
	type job struct {
		src     string
		q       *sparql.Query
		ordered bool
		want    *Results
	}
	var jobs []job
	for _, corpus := range []struct {
		srcs    []string
		ordered bool
	}{{vecEquivQueries, false}, {vecEquivOrdered, true}} {
		for _, src := range corpus.srcs {
			q := mustParse(t, src)
			want, err := tuple.Query(q)
			if err != nil {
				t.Fatalf("tuple %q: %v", src, err)
			}
			jobs = append(jobs, job{src, q, corpus.ordered, want})
		}
	}
	engines := map[int]*Engine{}
	for _, bs := range []int{1, 3, 1024} {
		engines[bs] = vecTestEngine(t)
		engines[bs].BatchSize = bs
	}
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * len(jobs) {
				j := jobs[(i+w*len(jobs)/4)%len(jobs)] // each goroutine starts elsewhere
				for bs, e := range engines {
					got, err := e.Query(j.q)
					if err == nil {
						if d := resultsDiff(j.want, got, j.ordered); d != "" {
							err = errors.New(d)
						}
					}
					if err != nil {
						errs[w] = fmt.Errorf("batch-%d %q: %w", bs, j.src, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func row(r *Results, i, j int) rdf.Term { return r.Rows[i][j] }

func termEq(a, b rdf.Term) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Key() == b.Key()
}

func TestBatchTupleEquivalence(t *testing.T) {
	for _, src := range vecEquivQueries {
		runModes(t, src, false)
	}
}

func TestBatchTupleEquivalenceOrdered(t *testing.T) {
	for _, src := range vecEquivOrdered {
		runModes(t, src, true)
	}
}

func TestBatchTupleAsk(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{`PREFIX ex: <http://ex/> ASK { ?s ex:age ?a FILTER(?a = 23) }`, true},
		{`PREFIX ex: <http://ex/> ASK { ?s ex:age ?a FILTER(?a > 99) }`, false},
		{`PREFIX ex: <http://ex/> ASK { ?x ex:knows ?x }`, true},
	} {
		for _, bs := range []int{-1, 0, 3} {
			e := vecTestEngine(t)
			e.BatchSize = bs
			res, err := e.QueryString(tc.src)
			if err != nil {
				t.Fatalf("bs=%d %q: %v", bs, tc.src, err)
			}
			if res.Bool != tc.want {
				t.Fatalf("bs=%d %q: ASK=%v, want %v", bs, tc.src, res.Bool, tc.want)
			}
		}
	}
}

// TestBatchLimitPushdown: LIMIT without ORDER BY stops the vectorized
// stream early; the row count (any rows are valid) must honor the
// limit, and DISTINCT+LIMIT must count distinct rows.
func TestBatchLimitPushdown(t *testing.T) {
	e := vecTestEngine(t)
	res, err := e.QueryString(`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:type ex:Person } LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", res.Len())
	}
	res, err = e.QueryString(`PREFIX ex: <http://ex/> SELECT DISTINCT ?a WHERE { ?s ex:age ?a } LIMIT 4`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("DISTINCT LIMIT 4 returned %d rows", res.Len())
	}
	seen := map[string]bool{}
	for i := range res.Rows {
		k := res.Rows[i][0].Key()
		if seen[k] {
			t.Fatalf("duplicate row %s under DISTINCT", k)
		}
		seen[k] = true
	}
}

// TestBatchGuardLimits: the vectorized path must respect MaxBindings
// and cancellation just like the tuple path.
func TestBatchGuardLimits(t *testing.T) {
	e := vecTestEngine(t)
	_, err := e.QueryContext(context.Background(), mustParse(t,
		`PREFIX ex: <http://ex/> SELECT ?s ?o WHERE { ?s ex:knows ?o . ?o ex:knows ?b }`),
		Limits{MaxBindings: 5})
	if err == nil {
		t.Fatal("want bindings-budget error from the vectorized path")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.QueryContext(ctx, mustParse(t,
		`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:type ex:Person }`), Limits{})
	if err == nil {
		t.Fatal("want cancellation error")
	}
}

// TestVecPlanRefreshAfterMutation: a per-execution plan compiled when a
// constant was absent from the dictionary must see it after an insert —
// the generation check re-resolves constant IDs, so a plan never probes
// stale or missing IDs (the standalone-engine face of the cache
// invalidation fix; the core-level compiled-query cache test is in
// internal/core).
func TestVecPlanRefreshAfterMutation(t *testing.T) {
	ds := rdf.NewDataset()
	e := New(ds)
	q := mustParse(t, `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:newpred 7 }`)
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("empty graph returned %d rows", res.Len())
	}
	addTriple(ds.Default, rdf.IRI("http://ex/a"), rdf.IRI("http://ex/newpred"), rdf.Integer(7))
	res, err = e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("after insert: %d rows, want 1 (stale constant IDs?)", res.Len())
	}
}

// TestVecStatsCounters: engine-level batch counters advance only when
// the vectorized path runs.
func TestVecStatsCounters(t *testing.T) {
	e := vecTestEngine(t)
	before := e.VecStats()
	if _, err := e.QueryString(`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a }`); err != nil {
		t.Fatal(err)
	}
	after := e.VecStats()
	if after.Queries != before.Queries+1 || after.Rows <= before.Rows {
		t.Fatalf("vec counters did not advance: %+v -> %+v", before, after)
	}
	e.BatchSize = -1
	mid := e.VecStats()
	if _, err := e.QueryString(`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a }`); err != nil {
		t.Fatal(err)
	}
	if e.VecStats() != mid {
		t.Fatal("tuple-mode query advanced vec counters")
	}
}

// TestVecSteadyStateAllocs: after the first run has filled the column
// pool, each vectorized pipeline run costs a small constant number of
// allocations (the per-run sink chain), independent of row count —
// i.e. zero allocations per batch and per row.
func TestVecSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	e := vecTestEngine(t)
	q := mustParse(t, `PREFIX ex: <http://ex/> SELECT ?s ?o ?a WHERE { ?s ex:knows ?o . ?o ex:age ?a FILTER(?a > 21) }`)
	c := &evalCtx{eng: e, graph: e.Dataset.Default}
	e.BatchSize = 8 // small batches: many flushes per run
	pl := c.vecPlanFor(q.Where)
	if pl == nil {
		t.Fatal("query did not vectorize")
	}
	if len(pl.rest) != 0 {
		t.Fatalf("unexpected tuple suffix: %d steps", len(pl.rest))
	}
	rows := 0
	run := func() {
		rows = 0
		if err := pl.run(c, func(b *colbatch) error {
			rows += b.n
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the column pool
	if rows == 0 {
		t.Fatal("pipeline produced no rows")
	}
	allocs := testing.AllocsPerRun(30, run)
	// The sink chain is rebuilt per run: one closure per operator and
	// one for the sink. Nothing may allocate per batch or per row.
	maxAllocs := float64(4*len(pl.ops) + 4)
	if allocs > maxAllocs {
		t.Fatalf("steady-state vectorized run: %.1f allocs, want <= %.0f (per-batch allocation leak?)", allocs, maxAllocs)
	}
}

// TestGuardVecAggSteadyStateAllocs: batch-native aggregation does zero
// per-row allocations in steady state — total allocations per query are
// bounded by plan build + per-group finalization, independent of how
// many rows flow through the fold. Verified by comparing two datasets
// whose row counts differ 8x but whose group counts match.
func TestGuardVecAggSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	build := func(n int) *Engine {
		ds := rdf.NewDataset()
		g := ds.Default
		for i := 0; i < n; i++ {
			addTriple(g, rdf.IRI("http://ex/s"+itoa(i)), rdf.IRI("http://ex/val"), rdf.Integer(int64(i%13)))
		}
		return New(ds)
	}
	q := mustParse(t, `PREFIX ex: <http://ex/>
		SELECT ?v (COUNT(?s) AS ?n) (SUM(?v) AS ?t) (AVG(?v) AS ?avg) WHERE { ?s ex:val ?v } GROUP BY ?v`)
	measure := func(e *Engine) float64 {
		if _, err := e.Query(q); err != nil { // warm dictionary numeric cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Query(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallE, bigE := build(512), build(4096)
	small, big := measure(smallE), measure(bigE)
	if st := bigE.VecStats(); st.AggQueries == 0 {
		t.Fatal("expected the batch-native aggregation path (VecStats sanity probe)")
	}
	// Same groups, 8x the rows: any per-row allocation would add ~3500
	// allocs. Allow slack for map growth and batch-count variation.
	if big > small+100 {
		t.Fatalf("aggregation allocations scale with rows: %d rows -> %.0f allocs, %d rows -> %.0f allocs", 512, small, 4096, big)
	}
}

// TestGuardVecJoinBytesPerQuery bounds what a warm three-pattern join
// query allocates per execution at the default batch size: less than
// one output column of it (4 KiB). A run borrows every join output
// column from a pool and returns each when it ends, on every exit path;
// when each execution made its own columns, both queries read 25 KiB,
// at least one column per join output variable. The second stops at
// its LIMIT, so its run ends through the sink's early-stop error, the
// path a run that returned nothing on error would leak on.
// The collector is off and one processor runs, as for the gather
// guards: a collection empties the pool, and a pool keeps one private
// object per processor.
func TestGuardVecJoinBytesPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation sizes are not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := vecTestEngine(t)
	column := float64(rdf.DefaultBatchSize * 4) // bytes in one output column
	for _, src := range []string{
		`PREFIX ex: <http://ex/> SELECT ?o ?a ?b WHERE { ex:p5 ex:knows ?o . ?o ex:age ?a . ex:p5 ex:boss ?b }`,
		`PREFIX ex: <http://ex/> SELECT ?s ?o ?a WHERE { ?s ex:knows ?o . ?o ex:age ?a . ?s ex:type ex:Person } LIMIT 1`,
	} {
		q := mustParse(t, src)
		const runs = 20
		var before, after runtime.MemStats
		for i := -1; i < runs; i++ { // the first run fills the pool
			if i == 0 {
				runtime.ReadMemStats(&before)
			}
			if res, err := e.Query(q); err != nil || res.Len() != 1 {
				t.Fatalf("%s: %d rows, err %v", src, res.Len(), err)
			}
		}
		runtime.ReadMemStats(&after)
		perQuery := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%.0f B per execution: %s", perQuery, src)
		if perQuery >= column {
			t.Errorf("%s\n\tallocates %.0f B per execution, want < %.0f (one output column)", src, perQuery, column)
		}
	}
}

// TestVecFallbackBudgetEarlyStop: a small LIMIT over a wide vectorized
// prefix with an unvectorizable suffix must clamp the decode bridge's
// batch size to the limit — MaxBindings may not be charged for a full
// batch of rows the consumer never reads.
func TestVecFallbackBudgetEarlyStop(t *testing.T) {
	e := vecTestEngine(t)
	q := mustParse(t, `PREFIX ex: <http://ex/>
		SELECT ?s WHERE { ?s ex:type ex:Person . ?s ex:knows ?o MINUS { ?s ex:missing ?m } } LIMIT 1`)
	res, err := e.QueryContext(context.Background(), q, Limits{MaxBindings: 6})
	if err != nil {
		t.Fatalf("LIMIT 1 under MaxBindings=6: %v (fallback bridge decoding a full batch?)", err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
}

// TestVecUnionOptionalPlanRefresh: union-branch and optional patterns
// hold resolved constant IDs; a graph mutation between two runs of the
// same plan must re-resolve them (the generation check covers subPats
// and optional probes, not just top-level ops).
func TestVecUnionOptionalPlanRefresh(t *testing.T) {
	for _, src := range []string{
		`PREFIX ex: <http://ex/> SELECT ?s ?v WHERE { { ?s ex:a ?v } UNION { ?s ex:b ?v } }`,
		`PREFIX ex: <http://ex/> SELECT ?s ?v WHERE { ?s ex:a ?x OPTIONAL { ?s ex:b ?v } }`,
	} {
		ds := rdf.NewDataset()
		g := ds.Default
		addTriple(g, rdf.IRI("http://ex/s1"), rdf.IRI("http://ex/a"), rdf.Integer(1))
		e := New(ds)
		q := mustParse(t, src)
		c := &evalCtx{eng: e, graph: g}
		pl := c.vecPlanFor(q.Where)
		if pl == nil || len(pl.rest) != 0 {
			t.Fatalf("%q did not fully vectorize", src)
		}
		count := func() int {
			rows := 0
			if err := pl.run(c, func(b *colbatch) error {
				rows += b.n
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return rows
		}
		if got := count(); got != 1 {
			t.Fatalf("%q before insert: %d rows, want 1", src, got)
		}
		// ex:b enters the dictionary only now; the cached plan's branch
		// pattern must pick up its fresh ID.
		addTriple(g, rdf.IRI("http://ex/s1"), rdf.IRI("http://ex/b"), rdf.Integer(2))
		want := 2
		if strings.Contains(src, "OPTIONAL") {
			want = 1 // still one left row, now with ?v bound
		}
		if got := count(); got != want {
			t.Fatalf("%q after insert: %d rows, want %d (stale branch constant IDs?)", src, got, want)
		}
	}
}

// TestVecFastPathsMatchTupleReference: batch-native aggregation and the
// bounded top-K heap engage on a default engine and return what the
// tuple reference (BatchSize < 0) returns; a LIMIT past maxTopK takes
// the full sort instead of the heap, with the same rows.
func TestVecFastPathsMatchTupleReference(t *testing.T) {
	aggQ := `PREFIX ex: <http://ex/> SELECT ?a (COUNT(?s) AS ?n) WHERE { ?s ex:age ?a } GROUP BY ?a ORDER BY ?a`
	topkQ := `PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a } ORDER BY DESC(?a) ?s LIMIT 5`
	fullSortQ := `PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:age ?a } ORDER BY DESC(?a) ?s LIMIT ` + itoa(maxTopK+1)

	batch := vecTestEngine(t)
	reference := vecTestEngine(t)
	reference.BatchSize = -1

	same := func(src string) {
		t.Helper()
		want, err := reference.QueryString(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batch.QueryString(src)
		if err != nil {
			t.Fatal(err)
		}
		w, g := difftest.Canon(want.Rows), difftest.Canon(got.Rows)
		if strings.Join(w, "\n") != strings.Join(g, "\n") {
			t.Fatalf("%q: batch differs from the tuple reference:\n%v\nvs\n%v", src, g, w)
		}
	}
	same(aggQ)
	same(topkQ)
	before := batch.VecStats()
	if before.AggQueries != 1 || before.TopKQueries != 1 {
		t.Fatalf("batch engine skipped a fast path: %+v", before)
	}
	same(fullSortQ)
	if bs := batch.VecStats(); bs.TopKQueries != before.TopKQueries || bs.SortQueries != before.SortQueries+1 {
		t.Fatalf("LIMIT %d should sort fully, not through the heap: %+v", maxTopK+1, bs)
	}
	if rs := reference.VecStats(); rs != (VecStats{}) {
		t.Fatalf("tuple reference ran batch code: %+v", rs)
	}
}

// TestTupleFallbackAllocsNoRegression: with batch mode off, the tuple
// path's per-probe allocation profile must stay at its seed level (see
// TestTracingOffZeroAllocBoundProbe for the strict per-probe bounds).
func TestTupleFallbackAllocsNoRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	e := vecTestEngine(t)
	e.BatchSize = -1
	g := e.Dataset.Default
	s, _ := g.Lookup(rdf.IRI("http://ex/p5"))
	p, _ := g.Lookup(rdf.IRI("http://ex/type"))
	o, _ := g.Lookup(rdf.IRI("http://ex/Person"))
	probe := testing.AllocsPerRun(200, func() {
		hit := false
		g.Match(s, p, o, func(rdf.Triple) bool {
			hit = true
			return true
		})
		if !hit {
			t.Fatal("probe missed")
		}
	})
	if probe != 0 {
		t.Errorf("tuple-path bound probe: %v allocs/op, want 0", probe)
	}
}

// highIDEngine interns filler unrelated terms and then a small journal
// graph, so every term an answer row carries sits at the top of the
// dictionary's ID range.
func highIDEngine(filler int) *Engine {
	ds := rdf.NewDataset()
	g := ds.Default
	for i := 0; i < filler; i++ {
		g.Intern(rdf.IRI("http://ex/unrelated" + itoa(i)))
	}
	for i := 0; i < 64; i++ {
		doc := rdf.IRI("http://ex/doc" + itoa(i))
		addTriple(g, doc, rdf.IRI("http://ex/journal"), rdf.IRI("http://ex/j"+itoa(i%4)))
		addTriple(g, doc, rdf.IRI("http://ex/pages"), rdf.Integer(int64(1000+i)))
	}
	return New(ds)
}

// TestGuardQueryBytesIndependentOfDictSize: the bytes a query allocates
// follow the rows it returns, not the dictionary IDs those rows carry.
// The allocation-count tests above cannot see this — a per-query table
// sized by the largest ID touched is one allocation, however large — so
// this one measures bytes: the same three queries over the same answer
// rows, with and without 200 000 unrelated terms interned below them.
func TestGuardQueryBytesIndependentOfDictSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are unstable under -race")
	}
	small, big := highIDEngine(0), highIDEngine(200000)
	for _, src := range []string{
		`PREFIX ex: <http://ex/> SELECT ?d ?p WHERE { ?d ex:journal ex:j1 . ?d ex:pages ?p }`,
		`PREFIX ex: <http://ex/> SELECT ?d ?p WHERE { ?d ex:journal ex:j1 . ?d ex:pages ?p } ORDER BY DESC(?p) LIMIT 5`,
		`PREFIX ex: <http://ex/> SELECT ?j (SUM(?p) AS ?t) WHERE { ?d ex:journal ?j . ?d ex:pages ?p } GROUP BY ?j`,
	} {
		q := mustParse(t, src)
		bytesPerQuery := func(e *Engine) float64 {
			const runs = 20
			var before, after runtime.MemStats
			for i := -1; i < runs; i++ { // the first run warms pools and the numeric memo
				if i == 0 {
					runtime.ReadMemStats(&before)
				}
				if res, err := e.Query(q); err != nil || res.Len() == 0 {
					t.Fatalf("%s: %d rows, err %v", src, res.Len(), err)
				}
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / runs
		}
		s, b := bytesPerQuery(small), bytesPerQuery(big)
		if b > 1.5*s || s > 1.5*b {
			t.Errorf("%s\n\t%.0f B/query over a small dictionary, %.0f B/query with 200000 more terms below the answer's", src, s, b)
		}
	}
}

// BenchmarkProjectDecode pins the projection layer boundary: a
// vectorized SELECT whose 64 rows decode from the top of a 200 000-term
// dictionary. B/op is the number to watch.
func BenchmarkProjectDecode(b *testing.B) {
	e := highIDEngine(200000)
	q, err := sparql.ParseQuery(`PREFIX ex: <http://ex/> SELECT ?d ?j ?p WHERE { ?d ex:journal ?j . ?d ex:pages ?p }`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterClosureVsEval is why batch filters keep their compiled
// closures: the same Q1-shaped FILTER(?k >= 1000) over 2 000 rows, once
// through compileVecExpr's closures and once through eval over a reused
// Binding each row is decoded into. Both apply the same operator code.
func BenchmarkFilterClosureVsEval(b *testing.B) {
	g := rdf.NewGraph()
	ids := make([]rdf.ID, 2000)
	for i := range ids {
		ids[i] = g.Intern(rdf.Integer(int64(i)))
	}
	var cond sparql.Expression = sparql.EBin{Op: ">=", L: sparql.EVar{Name: "k"}, R: sparql.ELit{Term: rdf.Integer(1000)}}
	kept := func(t rdf.Term, err error) int {
		if ok, _ := filterKeeps(truth(t, err)); ok {
			return 1
		}
		return 0
	}
	b.Run("closure", func(b *testing.B) {
		fn, ok := compileVecExpr(cond, map[string]int{"k": 0})
		if !ok {
			b.Fatal("filter does not compile")
		}
		ev := vecEval{g: g, b: &colbatch{cols: [][]rdf.ID{ids}, n: len(ids)}}
		for b.Loop() {
			n := 0
			for ev.row = 0; ev.row < len(ids); ev.row++ {
				n += kept(fn(&ev))
			}
			if n != 1000 {
				b.Fatalf("kept %d rows", n)
			}
		}
	})
	b.Run("eval", func(b *testing.B) {
		c := &evalCtx{eng: New(rdf.NewDataset()), graph: g}
		bind := Binding{}
		for b.Loop() {
			n := 0
			for _, id := range ids {
				bind["k"] = g.TermOf(id)
				n += kept(c.eval(cond, bind))
			}
			if n != 1000 {
				b.Fatalf("kept %d rows", n)
			}
		}
	})
}

// TestGuardCountLeavesNumericMemoAlone: the batch fold reads an
// argument's number only for a register that folds numbers (SUM, AVG,
// MIN, MAX, user aggregates). COUNT and SAMPLE over 20 000 IRIs must not
// fill the dictionary's numeric memo, a 7 KiB page per 256 IDs read, that
// the graph then keeps: the first run may allocate no more than 64 KiB
// beyond what every later run allocates.
func TestGuardCountLeavesNumericMemoAlone(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are unstable under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := rdf.NewDataset()
	for i := 0; i < 20000; i++ {
		addTriple(ds.Default, rdf.IRI("http://ex/doc"+itoa(i)), rdf.IRI("http://ex/journal"), rdf.IRI("http://ex/j"+itoa(i%4)))
	}
	e := New(ds)
	q := mustParse(t, `PREFIX ex: <http://ex/> SELECT ?j (COUNT(?d) AS ?n) (SAMPLE(?d) AS ?x) WHERE { ?d ex:journal ?j } GROUP BY ?j`)
	bytes := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if res, err := e.Query(q); err != nil || res.Len() != 4 {
			t.Fatalf("%d rows, err %v", res.Len(), err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, later := bytes(), bytes()
	t.Logf("first run %d B, later runs %d B", first, later)
	if first > later+64<<10 {
		t.Errorf("the first COUNT/SAMPLE run allocates %d B, later ones %d B: the numeric memo grew", first, later)
	}
}
