package engine

import (
	"context"
	"strings"
	"testing"

	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

func traceTestEngine(t *testing.T) *Engine {
	t.Helper()
	ds := rdf.NewDataset()
	g := ds.Default
	for i := 0; i < 10; i++ {
		s := rdf.IRI("http://ex/s" + string(rune('0'+i)))
		addTriple(g, s, rdf.IRI("http://ex/p"), rdf.Integer(int64(i)))
		if i%2 == 0 {
			addTriple(g, s, rdf.IRI("http://ex/q"), rdf.Integer(int64(i*10)))
		}
	}
	return New(ds)
}

func mustParse(t *testing.T, src string) *sparql.Query {
	t.Helper()
	q, err := sparql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return q
}

func TestQueryTracedCountersAndPlan(t *testing.T) {
	e := traceTestEngine(t)
	e.BatchSize = -1 // tuple-path counters are what this test pins down
	q := mustParse(t, `PREFIX ex: <http://ex/>
		SELECT ?s ?v WHERE { ?s ex:p ?v . OPTIONAL { ?s ex:q ?w } FILTER(?v >= 5) } ORDER BY ?v`)

	res, tr, err := e.QueryTraced(context.Background(), q, Limits{})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if tr == nil {
		t.Fatal("nil trace")
	}
	if res.Len() != 5 {
		t.Fatalf("rows = %d, want 5", res.Len())
	}
	if tr.Rows != 5 {
		t.Errorf("trace.Rows = %d, want 5", tr.Rows)
	}
	if tr.TotalNanos <= 0 {
		t.Errorf("TotalNanos = %d, want > 0", tr.TotalNanos)
	}
	if tr.WhereNanos <= 0 {
		t.Errorf("WhereNanos = %d, want > 0", tr.WhereNanos)
	}
	// ?s ex:p ?v emits 10 candidates; the OPTIONAL bgp runs once per
	// surviving solution (5) and matches the even subjects >= 5 (6, 8).
	if tr.Matched != 12 {
		t.Errorf("Matched = %d, want 12", tr.Matched)
	}
	// matchPatterns entries: 1 (outer bgp) + 5 (optional bgp per input).
	if tr.MatchCalls != 6 {
		t.Errorf("MatchCalls = %d, want 6", tr.MatchCalls)
	}
	if tr.Bindings <= 0 {
		t.Errorf("Bindings = %d, want > 0", tr.Bindings)
	}

	for _, want := range []string{
		"bgp 1 pattern(s)",
		"filter (?v >= 5)",
		"optional left join",
		"matched=10",
		"order by 1 criterion(s)",
	} {
		if !strings.Contains(tr.Plan, want) {
			t.Errorf("plan missing %q:\n%s", want, tr.Plan)
		}
	}
	// The rendered report includes the headline and the plan.
	s := tr.String()
	if !strings.Contains(s, "EXPLAIN ANALYZE") || !strings.Contains(s, "rows=5") {
		t.Errorf("report headline missing:\n%s", s)
	}
}

// TestQueryTracedVectorized: with batch mode on (the default), the
// trace reports the vectorized pipeline — per-operator batch/row rows
// in the plan (including the batch left-outer OPTIONAL) and the
// vectorized ORDER BY annotation.
func TestQueryTracedVectorized(t *testing.T) {
	e := traceTestEngine(t)
	q := mustParse(t, `PREFIX ex: <http://ex/>
		SELECT ?s ?v WHERE { ?s ex:p ?v . OPTIONAL { ?s ex:q ?w } FILTER(?v >= 5) } ORDER BY ?v`)

	res, tr, err := e.QueryTraced(context.Background(), q, Limits{})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Len() != 5 {
		t.Fatalf("rows = %d, want 5", res.Len())
	}
	if !tr.Vectorized {
		t.Error("trace.Vectorized = false, want true")
	}
	if tr.VecRows <= 0 || tr.VecBatches <= 0 {
		t.Errorf("VecRows=%d VecBatches=%d, want both > 0", tr.VecRows, tr.VecBatches)
	}
	for _, want := range []string{
		"vec scan",
		"vec filter (?v >= 5)",
		"batches=",
		"vec optional",
		"order by 1 criterion(s): vectorized",
	} {
		if !strings.Contains(tr.Plan, want) {
			t.Errorf("plan missing %q:\n%s", want, tr.Plan)
		}
	}
	if !strings.Contains(tr.String(), "vectorized: batches=") {
		t.Errorf("report missing vectorized headline:\n%s", tr.String())
	}
}

func TestQueryTracedAggregatePhase(t *testing.T) {
	e := traceTestEngine(t)
	q := mustParse(t, `PREFIX ex: <http://ex/>
		SELECT (AVG(?v) AS ?avg) WHERE { ?s ex:p ?v }`)
	res, tr, err := e.QueryTraced(context.Background(), q, Limits{})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	if tr.AggNanos <= 0 {
		t.Errorf("AggNanos = %d, want > 0 (grouped query)", tr.AggNanos)
	}
	if !strings.Contains(tr.Plan, "group by") && tr.AggNanos <= 0 {
		t.Errorf("aggregation not visible in trace:\n%s", tr.Plan)
	}
}

// TestQueryTracedOnFailure: a query killed by its bindings budget must
// still produce a trace with the error recorded and counters up to the
// point of failure.
func TestQueryTracedOnFailure(t *testing.T) {
	e := traceTestEngine(t)
	q := mustParse(t, `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p ?v }`)
	_, tr, err := e.QueryTraced(context.Background(), q, Limits{MaxBindings: 3})
	if err == nil {
		t.Fatal("want bindings-budget error")
	}
	if tr == nil {
		t.Fatal("nil trace on failure")
	}
	if tr.Error == "" {
		t.Errorf("trace.Error empty, want the budget error")
	}
	if tr.Bindings == 0 {
		t.Errorf("Bindings = 0, want partial progress recorded")
	}
}

// TestUntracedQueryHasNoCollector: the default path must not pay for
// tracing — no collector is attached and results are identical to the
// traced run.
func TestUntracedQueryHasNoCollector(t *testing.T) {
	e := traceTestEngine(t)
	q := mustParse(t, `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p ?v } ORDER BY ?s`)
	plain, err := e.QueryContext(context.Background(), q, Limits{})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	traced, _, err := e.QueryTraced(context.Background(), q, Limits{})
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	if plain.Len() != traced.Len() {
		t.Fatalf("traced run changed the result: %d vs %d rows", plain.Len(), traced.Len())
	}
}

// TestTracingOffZeroAllocBoundProbe: the trace nil-checks added to the
// matching hot path must not introduce allocations when tracing is off.
// Two invariants: (1) the graph-level fully-bound probe — the inner
// loop of every nested-loop join — stays at 0 allocs; (2) routing the
// same probe through matchPatterns with a nil collector costs at most
// the one recursion closure it has always allocated, never the
// per-pattern bookkeeping of the traced branch.
func TestTracingOffZeroAllocBoundProbe(t *testing.T) {
	e := traceTestEngine(t)
	g := e.Dataset.Default
	s, _ := g.Lookup(rdf.IRI("http://ex/s5"))
	p, _ := g.Lookup(rdf.IRI("http://ex/p"))
	o, _ := g.Lookup(rdf.Integer(5))
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
		t.Errorf("graph-level bound probe: %v allocs/op, want 0", probe)
	}

	c := &evalCtx{eng: e, graph: g}
	q := mustParse(t, `PREFIX ex: <http://ex/> ASK { ex:s5 ex:p ?v }`)
	var pats []sparql.TriplePattern
	for _, el := range q.Where.Elems {
		if bgp, ok := el.(sparql.BGP); ok {
			pats = bgp.Triples
		}
	}
	if len(pats) != 1 {
		t.Fatalf("patterns = %d, want 1", len(pats))
	}
	b := Binding{"v": rdf.Integer(5)} // fully bound after substitution
	sink := 0
	direct := testing.AllocsPerRun(200, func() {
		_ = c.matchTriple(pats[0], b, func(Binding) error {
			sink++
			return nil
		})
	})
	viaEngine := testing.AllocsPerRun(200, func() {
		_ = c.matchPatterns(pats, 0, b, func(Binding) error {
			sink++
			return nil
		})
	})
	if sink == 0 {
		t.Fatal("probe never matched")
	}
	if viaEngine > direct+1 {
		t.Errorf("matchPatterns with tracing off: %v allocs/op vs %v raw — the off path must not pay for tracing", viaEngine, direct)
	}
}

// TestGraphClauseTracePropagates: a GRAPH clause builds a derived
// evalCtx; the collector must follow it so the nested group shows up in
// the plan.
func TestGraphClauseTracePropagates(t *testing.T) {
	ds := rdf.NewDataset()
	ng := ds.Named(rdf.IRI("http://ex/g1"), true)
	addTriple(ng, rdf.IRI("http://ex/a"), rdf.IRI("http://ex/p"), rdf.Integer(1))
	e := New(ds)
	q := mustParse(t, `PREFIX ex: <http://ex/> SELECT ?s WHERE { GRAPH ex:g1 { ?s ex:p ?v } }`)
	res, tr, err := e.QueryTraced(context.Background(), q, Limits{})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	if !strings.Contains(tr.Plan, "graph") {
		t.Errorf("plan missing graph step:\n%s", tr.Plan)
	}
	if strings.Contains(tr.Plan, "(not executed)") {
		t.Errorf("nested graph group reported unexecuted:\n%s", tr.Plan)
	}
	if tr.Matched != 1 {
		t.Errorf("Matched = %d, want 1 (counted inside GRAPH)", tr.Matched)
	}
}
