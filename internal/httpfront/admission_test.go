package httpfront

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/metrics"
	"scisparql/internal/rdf"
)

// blockingTenantDB builds an SSDM whose block() foreign function parks
// a query until release is closed, signalling entry on entered — the
// deterministic way to hold an admission slot in tests.
func blockingTenantDB(t *testing.T) (db *core.SSDM, entered chan struct{}, release chan struct{}) {
	t.Helper()
	db = core.Open()
	db.Dataset.Default.Add(rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Integer(1))
	entered = make(chan struct{}, 16)
	release = make(chan struct{})
	db.RegisterForeign("block", 1, 1, func(args []rdf.Term) (rdf.Term, error) {
		entered <- struct{}{}
		<-release
		return args[0], nil
	})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	return db, entered, release
}

const blockingQuery = `SELECT (block(?v) AS ?b) WHERE { ?s <http://ex/p> ?v }`

// TestTenantCap429 is the acceptance scenario: two tenants with
// different quota profiles enforced independently. Saturating acme's
// in-flight cap yields 429 + Retry-After for acme, while the default
// tenant keeps answering; once the slot frees, acme serves again.
func TestTenantCap429(t *testing.T) {
	defDB := core.Open()
	defDB.Dataset.Default.Add(rdf.IRI("http://ex/d"), rdf.IRI("http://ex/p"), rdf.Integer(7))
	acmeDB, entered, release := blockingTenantDB(t)

	f := New(NewTenants(defDB))
	f.Metrics = metrics.NewRegistry()
	f.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	f.RetryAfter = 2 * time.Second
	if err := f.Tenants.Add(&Tenant{Name: "acme", DB: acmeDB, MaxInflight: 1}); err != nil {
		t.Fatal(err)
	}

	// Park one acme query inside the engine, holding acme's only slot.
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- get(f, "/tenants/acme/sparql", blockingQuery, nil)
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking query never reached the engine")
	}

	// acme is saturated: fail fast with 429 and an advisory delay.
	w := get(f, "/tenants/acme/sparql", `SELECT * WHERE { ?s <http://ex/p> ?v }`, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", ra)
	}
	if doc := jsonBody(t, w); doc["code"] != "overloaded" {
		t.Fatalf("code %v, want overloaded", doc["code"])
	}

	// The other tenant is unaffected.
	w = get(f, "/sparql", `SELECT * WHERE { ?s <http://ex/p> ?v }`, nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "http://ex/d") {
		t.Fatalf("default tenant starved by acme's cap: %d %s", w.Code, w.Body.String())
	}

	acme, _ := f.Tenants.Get("acme")
	if acme.Inflight() != 1 || acme.Rejected() != 1 {
		t.Fatalf("acme accounting inflight=%d rejected=%d, want 1/1", acme.Inflight(), acme.Rejected())
	}

	// Release the parked query; the slot frees and acme serves again.
	close(release)
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("parked query finished with %d: %s", w.Code, w.Body.String())
	}
	if w := get(f, "/tenants/acme/sparql", `SELECT * WHERE { ?s <http://ex/p> ?v }`, nil); w.Code != http.StatusOK {
		t.Fatalf("acme still rejecting after release: %d", w.Code)
	}
	if acme.Inflight() != 0 {
		t.Fatalf("inflight %d after drain, want 0", acme.Inflight())
	}
}

// TestGlobalCap429: the process-wide semaphore rejects across tenants
// once full, independent of per-tenant headroom.
func TestGlobalCap429(t *testing.T) {
	db, entered, release := blockingTenantDB(t)
	f := New(NewTenants(db))
	f.Metrics = metrics.NewRegistry()
	f.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	f.GlobalMaxInflight = 1

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- get(f, "/sparql", blockingQuery, nil) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking query never reached the engine")
	}

	w := get(f, "/sparql", `SELECT * WHERE { ?s <http://ex/p> ?v }`, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("global cap: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("parked query finished with %d", w.Code)
	}
	if w := get(f, "/sparql", `SELECT * WHERE { ?s <http://ex/p> ?v }`, nil); w.Code != http.StatusOK {
		t.Fatalf("global slot not released: %d", w.Code)
	}
}

// TestDrainRefusesAndCancels: Shutdown turns new arrivals into 503 +
// Retry-After and cancels queries already executing, which answer with
// their typed cancellation error.
func TestDrainRefusesAndCancels(t *testing.T) {
	db := core.Open()
	for i := 0; i < 300; i++ {
		db.Dataset.Default.Add(rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.Integer(i))
	}
	f := New(NewTenants(db))
	f.Metrics = metrics.NewRegistry()
	f.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))

	cross := `SELECT * WHERE { ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- get(f, "/sparql", cross, nil) }()
	time.Sleep(100 * time.Millisecond) // let the runaway query reach the engine

	f.Shutdown()

	// The in-flight query is cancelled, not abandoned: its client gets
	// the typed 408 response.
	select {
	case w := <-done:
		if w.Code != http.StatusRequestTimeout {
			t.Fatalf("in-flight query during drain: status %d, want 408: %s", w.Code, w.Body.String())
		}
		if doc := jsonBody(t, w); doc["code"] != "cancelled" {
			t.Fatalf("code %v, want cancelled", doc["code"])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not cancel the in-flight query")
	}

	// New arrivals are refused.
	w := get(f, "/sparql", `SELECT * WHERE { ?s <http://ex/p> ?v }`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Shutdown is idempotent.
	f.Shutdown()
}

// TestParseConfig covers the tenants-file validation: happy path,
// unknown fields, duplicates, empty names, malformed durations.
func TestParseConfig(t *testing.T) {
	c, err := ParseConfig([]byte(`{
	  "global_max_inflight": 8,
	  "default_max_inflight": 4,
	  "tenants": [
	    {"name": "acme", "max_inflight": 2, "query_timeout": "2s", "max_rows": 100, "max_bindings": 1000},
	    {"name": "globex", "max_inflight": 1}
	  ]}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.GlobalMaxInflight != 8 || c.DefaultMaxInflight != 4 || len(c.Tenants) != 2 {
		t.Fatalf("parsed %+v", c)
	}
	if lim := c.Tenants[0].limits(); lim.Timeout != 2*time.Second || lim.MaxResultRows != 100 || lim.MaxBindings != 1000 {
		t.Fatalf("acme limits %+v", lim)
	}

	for _, bad := range []string{
		`{"tenants": [{"name": "a", "quota": 1}]}`,              // unknown field
		`{"tenants": [{"name": "a"}, {"name": "a"}]}`,           // duplicate
		`{"tenants": [{"max_inflight": 1}]}`,                    // empty name
		`{"tenants": [{"name": "a", "query_timeout": "fast"}]}`, // bad duration
	} {
		if _, err := ParseConfig([]byte(bad)); err == nil {
			t.Errorf("ParseConfig accepted %s", bad)
		}
	}
}

// TestConfigBuild: Build shares the default dataset, isolates named
// tenants, loads their documents, and reserves the default name.
func TestConfigBuild(t *testing.T) {
	dir := t.TempDir()
	ttl := filepath.Join(dir, "acme.ttl")
	if err := os.WriteFile(ttl, []byte(`<http://acme/s> <http://ex/p> 1 .`), 0o644); err != nil {
		t.Fatal(err)
	}

	db := core.Open()
	db.Dataset.Default.Add(rdf.IRI("http://ex/d"), rdf.IRI("http://ex/p"), rdf.Integer(1))
	cfg := &Config{
		DefaultMaxInflight: 3,
		Tenants: []TenantConfig{
			{Name: "acme", MaxInflight: 1, QueryTimeout: "1s", Load: []string{ttl}},
		},
	}
	ts, err := cfg.Build(core.DefaultOptions(), db)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := ts.Get("")
	if def.DB != db || def.MaxInflight != 3 {
		t.Fatalf("default tenant %+v", def)
	}
	acme, ok := ts.Get("acme")
	if !ok || acme.DB == db || acme.MaxInflight != 1 || acme.Limits.Timeout != time.Second {
		t.Fatalf("acme tenant %+v", acme)
	}
	if acme.DB.Dataset.Default.Size() != 1 {
		t.Fatalf("acme dataset size %d, want 1 loaded triple", acme.DB.Dataset.Default.Size())
	}

	bad := &Config{Tenants: []TenantConfig{{Name: DefaultTenant}}}
	if _, err := bad.Build(core.DefaultOptions(), db); err == nil {
		t.Fatal("Build accepted a tenant named default")
	}
	missing := &Config{Tenants: []TenantConfig{{Name: "x", Load: []string{filepath.Join(dir, "nope.ttl")}}}}
	if _, err := missing.Build(core.DefaultOptions(), db); err == nil {
		t.Fatal("Build accepted a missing load file")
	}
}

// TestTenantProfileEnforced: a tenant's guard profile applies with no
// per-request parameters, and requests can only tighten it.
func TestTenantProfileEnforced(t *testing.T) {
	db := core.Open()
	for i := 0; i < 50; i++ {
		db.Dataset.Default.Add(rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.Integer(i))
	}
	f := New(NewTenants(core.Open()))
	f.Metrics = metrics.NewRegistry()
	f.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := f.Tenants.Add(&Tenant{Name: "capped", DB: db,
		Limits: engine.Limits{MaxResultRows: 10}}); err != nil {
		t.Fatal(err)
	}

	// The profile's 10-row cap fires with no request parameters.
	w := get(f, "/tenants/capped/sparql", `SELECT * WHERE { ?s <http://ex/p> ?v }`, nil)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("profile cap: status %d, want 422: %s", w.Code, w.Body.String())
	}
	// A request asking to loosen it (max-rows=1000) is clamped: still 422.
	r := httptest.NewRequest(http.MethodGet,
		"/tenants/capped/sparql?max-rows=1000&query="+url.QueryEscape(`SELECT * WHERE { ?s <http://ex/p> ?v }`), nil)
	if w := do(f, r); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("loosening attempt: status %d, want 422", w.Code)
	}
	// Under the cap, the tenant serves normally.
	w = get(f, "/tenants/capped/sparql", `SELECT * WHERE { ?s <http://ex/p> ?v } LIMIT 5`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("within profile: status %d: %s", w.Code, w.Body.String())
	}
}

// TestConcurrentAdmissionAccounting hammers one capped tenant from
// many goroutines; afterwards the books balance: served + rejected ==
// issued and nothing is left in flight. Run with -race this also
// exercises the semaphore paths for data races.
func TestConcurrentAdmissionAccounting(t *testing.T) {
	db := core.Open()
	db.Dataset.Default.Add(rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Integer(1))
	f := New(NewTenants(core.Open()))
	f.Metrics = metrics.NewRegistry()
	f.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := f.Tenants.Add(&Tenant{Name: "busy", DB: db, MaxInflight: 2}); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 25
	var mu sync.Mutex
	served, rejected := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				w := get(f, "/tenants/busy/sparql", `SELECT * WHERE { ?s <http://ex/p> ?v }`, nil)
				mu.Lock()
				switch w.Code {
				case http.StatusOK:
					served++
				case http.StatusTooManyRequests:
					rejected++
				default:
					t.Errorf("unexpected status %d: %s", w.Code, w.Body.String())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	busy, _ := f.Tenants.Get("busy")
	if served+rejected != workers*perWorker {
		t.Fatalf("served %d + rejected %d != issued %d", served, rejected, workers*perWorker)
	}
	if busy.Inflight() != 0 {
		t.Fatalf("inflight %d after quiesce, want 0", busy.Inflight())
	}
	if busy.Rejected() != int64(rejected) {
		t.Fatalf("tenant counted %d rejections, clients saw %d", busy.Rejected(), rejected)
	}
	if served == 0 {
		t.Fatal("cap rejected everything; admission is not admitting")
	}
}
