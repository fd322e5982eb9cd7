package server

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"scisparql/internal/core"
	"scisparql/internal/metrics"
	"scisparql/internal/rdf"
	"scisparql/internal/ssdmclient"
	"scisparql/internal/storage"
)

// startObservedServer is startServer with a private metrics registry
// (so assertions don't race other tests sharing the process default)
// and optional logger / slow-query settings applied before Listen.
func startObservedServer(t *testing.T, cfg func(*Server)) (*core.SSDM, *ssdmclient.Client, *metrics.Registry, string) {
	t.Helper()
	db := core.Open()
	db.AttachBackend(storage.NewMemory())
	srv := New(db)
	reg := metrics.NewRegistry()
	srv.Metrics = reg
	if cfg != nil {
		cfg(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := ssdmclient.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return db, cl, reg, addr
}

const observeData = `@prefix ex: <http://ex/> .
ex:s1 ex:p 1 . ex:s2 ex:p 2 . ex:s3 ex:p 3 .`

const observeQuery = `PREFIX ex: <http://ex/> SELECT ?s ?v WHERE { ?s ex:p ?v } ORDER BY ?v`

func TestExplainOverWire(t *testing.T) {
	_, cl, _, _ := startObservedServer(t, nil)
	if err := cl.LoadTurtle(observeData, ""); err != nil {
		t.Fatal(err)
	}
	plan, err := cl.Explain(observeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "bgp") {
		t.Errorf("plan-only explain missing bgp step:\n%s", plan)
	}
}

func TestExplainAnalyzeOverWire(t *testing.T) {
	_, cl, _, _ := startObservedServer(t, nil)
	if err := cl.LoadTurtle(observeData, ""); err != nil {
		t.Fatal(err)
	}
	res, tr, err := cl.ExplainAnalyze(context.Background(), observeQuery, ssdmclient.Guards{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3", res.Len())
	}
	if tr == nil {
		t.Fatal("nil trace over the wire")
	}
	if tr.Rows != 3 {
		t.Errorf("trace rows = %d, want 3", tr.Rows)
	}
	if tr.TotalNS <= 0 || tr.WhereNS <= 0 {
		t.Errorf("timings not populated: total=%d where=%d", tr.TotalNS, tr.WhereNS)
	}
	// The query vectorizes fully by default, so the counters crossing
	// the wire are the batch ones and the plan shows the vec pipeline.
	if !tr.Vectorized || tr.VecRows != 3 || tr.VecBatches <= 0 {
		t.Errorf("vec counters: vectorized=%v batches=%d rows=%d, want true/>0/3", tr.Vectorized, tr.VecBatches, tr.VecRows)
	}
	if !strings.Contains(tr.Plan, "rows=3") {
		t.Errorf("annotated plan missing counters:\n%s", tr.Plan)
	}
	if tr.PlanCached {
		t.Error("first run reported plan_cached=true")
	}

	// Second run of the same text must hit the compiled-query cache.
	_, tr2, err := cl.ExplainAnalyze(context.Background(), observeQuery, ssdmclient.Guards{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.PlanCached {
		t.Error("second run reported plan_cached=false, want cache hit")
	}
}

// TestExplainAnalyzeTraceOnFailure: when the query dies on a guard, the
// response still carries the partial trace next to the error.
func TestExplainAnalyzeTraceOnFailure(t *testing.T) {
	_, cl, _, _ := startObservedServer(t, nil)
	if err := cl.LoadTurtle(observeData, ""); err != nil {
		t.Fatal(err)
	}
	_, tr, err := cl.ExplainAnalyze(context.Background(), observeQuery,
		ssdmclient.Guards{MaxBindings: 1})
	if err == nil {
		t.Fatal("want guard error")
	}
	if tr == nil {
		t.Fatal("no trace attached to failed analyze")
	}
	if tr.Error == "" {
		t.Errorf("trace error field empty")
	}
}

func TestMetricsScrape(t *testing.T) {
	_, cl, reg, _ := startObservedServer(t, nil)
	if err := cl.LoadTurtle(observeData, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Query(observeQuery); err != nil {
			t.Fatal(err)
		}
	}
	// A failing request feeds the error counter.
	if _, err := cl.Query(`SELECT ?s WHERE { this is not sparql`); err == nil {
		t.Fatal("want parse error")
	}
	// A scan is a query to every instrument: its triples are rows
	// returned, its latency is in the histogram.
	if err := cl.Scan(context.Background(), nil, rdf.IRI("http://ex/p"), nil, func(s, p, o rdf.Term) bool { return true }); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("scrape status %d", rec.Code)
	}
	body := rec.Body.String()
	wants := []string{
		`ssdm_requests_total{op="query"} 4`,
		`ssdm_requests_total{op="load_turtle"} 1`,
		`ssdm_requests_total{op="scan"} 1`,
		"ssdm_request_errors_total{code=",
		"ssdm_query_duration_seconds_count 5",
		"ssdm_query_duration_seconds_bucket{le=",
		"ssdm_rows_returned_total 12",
		"ssdm_triples 3",
		"ssdm_connections_active 1",
		"ssdm_query_cache_hits",
		"ssdm_chunk_cache_budget_bytes",
		"ssdm_storage_read_calls",
	}
	for _, want := range wants {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape body:\n%s", body)
	}
}

// syncWriter serializes writes from the server's connection goroutines
// into a buffer the test can read.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestSlowQueryLog(t *testing.T) {
	out := &syncWriter{}
	_, cl, _, _ := startObservedServer(t, func(s *Server) {
		s.Logger = slog.New(slog.NewJSONHandler(out, nil))
		s.SlowQuery = time.Nanosecond // everything is slow
	})
	if err := cl.LoadTurtle(observeData, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(observeQuery); err != nil {
		t.Fatal(err)
	}
	logged := out.String()
	for _, want := range []string{
		`"msg":"slow query"`,
		`"op":"query"`,
		`"duration":`,
		`"rows":3`,
		`"outcome":"ok"`,
		"SELECT ?s ?v",
	} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-query log missing %s:\n%s", want, logged)
		}
	}

	// A scan has no text; the log shows its pattern and counts its
	// triples.
	if err := cl.Scan(context.Background(), nil, rdf.IRI("http://ex/p"), rdf.Integer(2), func(s, p, o rdf.Term) bool { return true }); err != nil {
		t.Fatal(err)
	}
	logged = strings.TrimPrefix(out.String(), logged)
	for _, want := range []string{`"op":"scan"`, `"rows":1`, `"outcome":"ok"`, `"query":"scan ? <http://ex/p> 2"`} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-query log of a scan missing %s:\n%s", want, logged)
		}
	}
}

// TestSlowQueryLogDisabled: with no threshold set, nothing is logged.
func TestSlowQueryLogDisabled(t *testing.T) {
	out := &syncWriter{}
	_, cl, _, _ := startObservedServer(t, func(s *Server) {
		s.Logger = slog.New(slog.NewJSONHandler(out, nil))
	})
	if err := cl.LoadTurtle(observeData, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(observeQuery); err != nil {
		t.Fatal(err)
	}
	if logged := out.String(); strings.Contains(logged, "slow query") {
		t.Errorf("slow-query log written with threshold disabled:\n%s", logged)
	}
}

// TestObservabilityStress runs concurrent clients, EXPLAIN ANALYZE
// requests and metric scrapes against one server; under -race this
// verifies the whole observability path is race-clean.
func TestObservabilityStress(t *testing.T) {
	db, cl0, reg, addr := startObservedServer(t, func(s *Server) {
		s.SlowQuery = time.Nanosecond
		s.Logger = slog.New(slog.NewJSONHandler(&syncWriter{}, nil))
	})
	if err := cl0.LoadTurtle(observeData, ""); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			cl, err := ssdmclient.Connect(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < iters; i++ {
				if n%2 == 0 {
					if _, err := cl.Query(observeQuery); err != nil {
						errs <- err
						return
					}
				} else {
					if _, _, err := cl.ExplainAnalyze(context.Background(), observeQuery, ssdmclient.Guards{}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	// Concurrent scrapers exercising every gauge closure.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				_ = reg.WritePrometheus(&sb)
				_ = db.QueryCacheStats()
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if !strings.Contains(body, `ssdm_requests_total{op="query"} 50`) {
		t.Errorf("query counter wrong after stress:\n%s", grepLines(body, "ssdm_requests_total"))
	}
	if !strings.Contains(body, `ssdm_requests_total{op="explain"} 50`) {
		t.Errorf("explain counter wrong after stress:\n%s", grepLines(body, "ssdm_requests_total"))
	}
	if !strings.Contains(body, "ssdm_query_duration_seconds_count 100") {
		t.Errorf("latency histogram wrong after stress:\n%s", grepLines(body, "duration_seconds_count"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
