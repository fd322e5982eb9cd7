package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
)

// cluster builds a coordinator over n in-process local shards and
// arms it on a fresh node.
func cluster(t *testing.T, n int) (*core.SSDM, *Coordinator) {
	t.Helper()
	node := core.Open()
	shards := make([]Shard, n)
	for i := range shards {
		shards[i] = NewLocalShard(fmt.Sprintf("shard-%d", i), core.Open())
	}
	c, err := New(node, shards)
	if err != nil {
		t.Fatal(err)
	}
	node.SetDistributor(c)
	return node, c
}

// canon renders a result as a sorted multiset of rows, with blank
// labels normalized (the coordinator rewrites blank labels at routing
// time, so they differ textually from a single-node run while naming
// the same nodes).
func canon(res *engine.Results) []string {
	rows := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var sb strings.Builder
		for _, tm := range row {
			switch {
			case tm == nil:
				sb.WriteString("∅")
			case tm.Kind() == rdf.KindBlank:
				sb.WriteString("_:blank")
			default:
				sb.WriteString(tm.Key())
			}
			sb.WriteByte('|')
		}
		rows = append(rows, sb.String())
	}
	sort.Strings(rows)
	return rows
}

func sameResults(t *testing.T, label string, want, got *engine.Results) {
	t.Helper()
	if want.Form != got.Form || want.Bool != got.Bool {
		t.Fatalf("%s: form/bool mismatch: want %v/%v got %v/%v", label, want.Form, want.Bool, got.Form, got.Bool)
	}
	w, g := canon(want), canon(got)
	if len(w) != len(g) {
		t.Fatalf("%s: row count %d != %d\nwant %v\ngot  %v", label, len(w), len(g), w, g)
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: row %d differs\nwant %v\ngot  %v", label, i, w, g)
		}
	}
}

const corpusData = `PREFIX ex: <http://ex/> INSERT DATA {
	ex:s1 ex:a 1 ; ex:b "x" ; ex:g "g1" ; ex:v 10 .
	ex:s2 ex:a 2 ; ex:b "y" ; ex:g "g1" ; ex:v 20 .
	ex:s3 ex:a 3 ; ex:b "x" ; ex:g "g2" ; ex:v 30 .
	ex:s4 ex:a 4 ; ex:g "g2" ; ex:v 5 .
	ex:s5 ex:a 2 ; ex:b "x" .
	ex:s1 ex:knows ex:s2 . ex:s2 ex:knows ex:s3 . ex:s3 ex:knows ex:s1 .
	_:anon ex:a 99 ; ex:b "hidden" .
}`

// corpus pairs query text with the dispatch mode the classifier must
// choose; equivalence against a single-node reference is checked for
// every entry.
var corpus = []struct {
	label, src, mode string
}{
	{"star-select", `PREFIX ex: <http://ex/> SELECT ?s ?a ?b WHERE { ?s ex:a ?a ; ex:b ?b }`, "pushdown"},
	{"single-pattern", `PREFIX ex: <http://ex/> SELECT ?s ?v WHERE { ?s ex:v ?v }`, "pushdown"},
	{"ground-subject", `PREFIX ex: <http://ex/> SELECT ?p ?o WHERE { ex:s2 ?p ?o }`, "pushdown"},
	{"distinct", `PREFIX ex: <http://ex/> SELECT DISTINCT ?b WHERE { ?s ex:b ?b }`, "pushdown"},
	{"ask-hit", `PREFIX ex: <http://ex/> ASK { ?s ex:a 3 }`, "pushdown"},
	{"ask-miss", `PREFIX ex: <http://ex/> ASK { ?s ex:a 77 }`, "pushdown"},
	{"count", `PREFIX ex: <http://ex/> SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:a ?a }`, "pushdown"},
	{"sum-filter", `PREFIX ex: <http://ex/> SELECT (SUM(?v) AS ?t) WHERE { ?s ex:v ?v FILTER(?v > 5) }`, "pushdown"},
	{"grouped-agg", `PREFIX ex: <http://ex/> SELECT ?g (SUM(?v) AS ?t) (COUNT(?s) AS ?n) WHERE { ?s ex:g ?g ; ex:v ?v } GROUP BY ?g`, "pushdown"},
	{"min-max", `PREFIX ex: <http://ex/> SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s ex:v ?v }`, "pushdown"},
	{"join", `PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }`, "gather"},
	{"optional", `PREFIX ex: <http://ex/> SELECT ?s ?b WHERE { ?s ex:a ?a OPTIONAL { ?s ex:b ?b } }`, "gather"},
	{"union", `PREFIX ex: <http://ex/> SELECT ?s WHERE { { ?s ex:a 1 } UNION { ?s ex:a 3 } }`, "gather"},
	{"avg", `PREFIX ex: <http://ex/> SELECT (AVG(?v) AS ?m) WHERE { ?s ex:v ?v }`, "gather"},
	{"order-by", `PREFIX ex: <http://ex/> SELECT ?s ?v WHERE { ?s ex:v ?v } ORDER BY DESC(?v)`, "gather"},
	{"path", `PREFIX ex: <http://ex/> SELECT ?z WHERE { ex:s1 ex:knows+ ?z }`, "gather"},
	{"exists", `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:a ?a FILTER EXISTS { ?s ex:b "x" } }`, "gather"},
	// A query blank is a variable; the star is still subject-colocated.
	{"blank-star", `PREFIX ex: <http://ex/> SELECT ?a WHERE { _:x ex:a ?a ; ex:b "hidden" }`, "pushdown"},
}

// runEquivalence loads the corpus into a single-node reference and an
// n-shard cluster and checks every corpus query agrees, including the
// classifier's dispatch mode.
func runEquivalence(t *testing.T, n int) {
	ref := core.Open()
	if _, err := ref.Update(corpusData); err != nil {
		t.Fatal(err)
	}
	node, _ := cluster(t, n)
	if _, err := node.Update(corpusData); err != nil {
		t.Fatal(err)
	}
	for _, q := range corpus {
		want, err := ref.Query(q.src)
		if err != nil {
			t.Fatalf("%s: reference: %v", q.label, err)
		}
		got, tr, err := node.QueryAnalyze(context.Background(), q.src, engine.Limits{})
		if err != nil {
			t.Fatalf("%s: distributed: %v", q.label, err)
		}
		if tr.ShardMode != q.mode {
			t.Fatalf("%s: dispatched as %q, want %q", q.label, tr.ShardMode, q.mode)
		}
		if q.label == "order-by" {
			// Ordered queries compare positionally, not as multisets.
			if len(want.Rows) != len(got.Rows) {
				t.Fatalf("order-by: %d rows != %d", len(want.Rows), len(got.Rows))
			}
			for i := range want.Rows {
				if want.Rows[i][1] != got.Rows[i][1] {
					t.Fatalf("order-by: row %d: %v != %v", i, want.Rows[i], got.Rows[i])
				}
			}
			continue
		}
		sameResults(t, q.label, want, got)
	}
}

func TestSingleShardEquivalence(t *testing.T) { runEquivalence(t, 1) }
func TestFourShardEquivalence(t *testing.T)   { runEquivalence(t, 4) }

func TestStatsAndTraceCounters(t *testing.T) {
	node, c := cluster(t, 4)
	if _, err := node.Update(corpusData); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Query(`PREFIX ex: <http://ex/> SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:a ?a }`); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Query(`PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }`); err != nil {
		t.Fatal(err)
	}
	st, ok := node.ShardStats()
	if !ok {
		t.Fatal("ShardStats not exposed")
	}
	if st.Shards != 4 || st.PushdownQueries < 1 || st.GatherQueries < 1 || st.Scatters < 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
	var calls int64
	for _, ps := range st.PerShard {
		calls += ps.Calls
	}
	if calls == 0 {
		t.Fatal("no per-shard calls recorded")
	}
	_ = c
}

func TestUpdateRouting(t *testing.T) {
	node, c := cluster(t, 4)
	const ins = `PREFIX ex: <http://ex/> INSERT DATA { ex:u1 ex:p 1 . ex:u2 ex:p 2 . ex:u3 ex:p 3 . ex:u4 ex:p 4 . ex:u5 ex:p 5 }`
	n, err := node.Update(ins)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("inserted %d, want 5", n)
	}
	// Each triple lives on exactly its subject's owner shard; the node
	// itself holds nothing.
	if node.Dataset.Default.Size() != 0 {
		t.Fatalf("coordinator holds %d triples, want 0", node.Dataset.Default.Size())
	}
	total := 0
	for i, sh := range c.shards {
		ls := sh.(*LocalShard)
		sz := ls.DB().Dataset.Default.Size()
		total += sz
		for j := 1; j <= 5; j++ {
			subj := rdf.IRI(fmt.Sprintf("http://ex/u%d", j))
			has := false
			ls.DB().Dataset.Default.MatchTerms(subj, nil, nil, func(s, p, o rdf.Term) bool {
				has = true
				return false
			})
			if has && c.part.Owner(subj) != i {
				t.Fatalf("subject %s found on shard %d, owner is %d", subj, i, c.part.Owner(subj))
			}
		}
	}
	if total != 5 {
		t.Fatalf("shards hold %d triples, want 5", total)
	}

	// DELETE DATA routes the same way.
	if _, err := node.Update(`PREFIX ex: <http://ex/> DELETE DATA { ex:u3 ex:p 3 }`); err != nil {
		t.Fatal(err)
	}
	res, err := node.Query(`PREFIX ex: <http://ex/> SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:p ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "n") != rdf.Integer(4) {
		t.Fatalf("after delete: %v", res.Rows)
	}

	// CLEAR broadcasts to every shard.
	if _, err := node.Update(`CLEAR DEFAULT`); err != nil {
		t.Fatal(err)
	}
	for _, sh := range c.shards {
		if sz := sh.(*LocalShard).DB().Dataset.Default.Size(); sz != 0 {
			t.Fatalf("shard still holds %d triples after CLEAR", sz)
		}
	}

	// Pattern-based modify is a typed unsupported error, not silence.
	if _, err := node.Update(`PREFIX ex: <http://ex/> DELETE { ?s ex:p ?v } WHERE { ?s ex:p ?v }`); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("DELETE WHERE = %v, want ErrUnsupported", err)
	}
}

func TestDistributedLoadTurtle(t *testing.T) {
	node, c := cluster(t, 3)
	doc := `@prefix ex: <http://ex/> .
ex:m1 ex:temp (1 2 3) ; ex:site "A" .
ex:m2 ex:temp (4 5 6) ; ex:site "B" .
ex:m3 ex:site "C" .`
	if err := node.LoadTurtle(doc, ""); err != nil {
		t.Fatal(err)
	}
	// Collections consolidate to arrays at the coordinator before
	// routing, so asum() works per shard.
	res, err := node.Query(`PREFIX ex: <http://ex/> SELECT (SUM(asum(?a)) AS ?t) WHERE { ?s ex:temp ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Get(0, "t"); got != rdf.Integer(21) {
		t.Fatalf("asum total = %v, want 21", got)
	}
	res, err = node.Query(`PREFIX ex: <http://ex/> SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:site ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "n") != rdf.Integer(3) {
		t.Fatalf("site count %v", res.Rows)
	}
	_ = c
}

func TestDefineBroadcast(t *testing.T) {
	node, _ := cluster(t, 2)
	if _, err := node.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:s1 ex:v 3 . ex:s2 ex:v 4 }`); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Update(`DEFINE FUNCTION square(?x) AS ?x * ?x`); err != nil {
		t.Fatal(err)
	}
	// The define must resolve on the gather path (coordinator engine)…
	res, err := node.Query(`PREFIX ex: <http://ex/> SELECT ?s (square(?v) AS ?q) WHERE { ?s ex:v ?v } ORDER BY ?q`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Rows[0][1] != rdf.Integer(9) || res.Rows[1][1] != rdf.Integer(16) {
		t.Fatalf("gather with define: %v", res.Rows)
	}
	// …and on the pushdown path (shard engines).
	res, err = node.Query(`PREFIX ex: <http://ex/> SELECT (SUM(?v) AS ?t) WHERE { ?s ex:v ?v FILTER(square(?v) > 10) }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "t") != rdf.Integer(4) {
		t.Fatalf("pushdown with define: %v", res.Rows)
	}
}

// failShard errors on every operation — a dead peer.
type failShard struct{}

func (failShard) Name() string { return "dead" }
func (failShard) Scan(ctx context.Context, s, p, o rdf.Term, emit func(s, p, o rdf.Term) bool) error {
	return errors.New("connection refused")
}
func (failShard) Query(ctx context.Context, src string, lim engine.Limits) (*engine.Results, error) {
	return nil, errors.New("connection refused")
}
func (failShard) Update(ctx context.Context, src string, lim engine.Limits) (int, error) {
	return 0, errors.New("connection refused")
}
func (failShard) AddArrayTriple(ctx context.Context, subject, property rdf.IRI, a *array.Array) error {
	return errors.New("connection refused")
}
func (failShard) Close() error { return nil }

func TestDeadShardFailsFast(t *testing.T) {
	node := core.Open()
	c, err := New(node, []Shard{NewLocalShard("ok", core.Open()), failShard{}})
	if err != nil {
		t.Fatal(err)
	}
	node.SetDistributor(c)

	done := make(chan error, 1)
	go func() {
		_, err := node.Query(`PREFIX ex: <http://ex/> SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:p ?v }`)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrShardUnavailable) {
			t.Fatalf("query error = %v, want ErrShardUnavailable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dead shard hung the query instead of failing fast")
	}
	// Gather path fails the same way.
	_, err = node.Query(`PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y . ?y ex:p ?x }`)
	if !errors.Is(err, core.ErrShardUnavailable) {
		t.Fatalf("gather error = %v, want ErrShardUnavailable", err)
	}
	st, _ := node.ShardStats()
	if st.Errors == 0 || st.PerShard[1].Errors == 0 {
		t.Fatalf("shard errors not counted: %+v", st)
	}
}

// blockShard parks every scan until its context is cancelled.
type blockShard struct {
	entered atomic.Int64
}

func (b *blockShard) Name() string { return "slow" }
func (b *blockShard) Scan(ctx context.Context, s, p, o rdf.Term, emit func(s, p, o rdf.Term) bool) error {
	b.entered.Add(1)
	<-ctx.Done()
	return ctx.Err()
}
func (b *blockShard) Query(ctx context.Context, src string, lim engine.Limits) (*engine.Results, error) {
	b.entered.Add(1)
	<-ctx.Done()
	return nil, ctx.Err()
}
func (b *blockShard) Update(ctx context.Context, src string, lim engine.Limits) (int, error) {
	b.entered.Add(1)
	<-ctx.Done()
	return 0, ctx.Err()
}
func (b *blockShard) AddArrayTriple(ctx context.Context, subject, property rdf.IRI, a *array.Array) error {
	return nil
}
func (b *blockShard) Close() error { return nil }

// TestScatterCancellationNoLeak cancels queries mid-scatter (all
// shards parked on their context) and checks both that the call
// returns promptly with the context error and that no scatter
// goroutines survive. Run under -race in CI.
func TestScatterCancellationNoLeak(t *testing.T) {
	node := core.Open()
	blocked := &blockShard{}
	c, err := New(node, []Shard{blocked, blocked, blocked, blocked})
	if err != nil {
		t.Fatal(err)
	}
	node.SetDistributor(c)

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := node.QueryContext(ctx, `PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y . ?y ex:q ?z }`)
			done <- err
		}()
		for blocked.entered.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) && !errors.Is(err, engine.ErrQueryCancelled) {
				t.Fatalf("cancelled query returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled scatter did not return")
		}
		blocked.entered.Store(0)
	}
	// Give exiting goroutines a moment, then require no growth beyond
	// scheduling noise.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d: scatter leak", before, runtime.NumGoroutine())
}

func TestQueryTimeoutCrossesShards(t *testing.T) {
	node := core.Open()
	c, err := New(node, []Shard{&blockShard{}})
	if err != nil {
		t.Fatal(err)
	}
	node.SetDistributor(c)
	_, err = node.QueryLimits(context.Background(),
		`PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y . ?y ex:q ?z }`,
		engine.Limits{Timeout: 50 * time.Millisecond})
	if !errors.Is(err, engine.ErrQueryTimeout) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout error = %v", err)
	}
}
