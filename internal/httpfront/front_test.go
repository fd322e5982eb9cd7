package httpfront

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"scisparql/internal/core"
	"scisparql/internal/difftest"
	"scisparql/internal/engine"
	"scisparql/internal/metrics"
	"scisparql/internal/rdf"
)

// newTestFront builds a front over a single default tenant holding the
// canonical two-triple fixture, with an isolated metrics registry and a
// silent logger.
func newTestFront(t *testing.T) (*Front, *core.SSDM) {
	t.Helper()
	db := core.Open()
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> .
ex:s ex:p 1 .
ex:s ex:name "Alice"@en .`, ""); err != nil {
		t.Fatal(err)
	}
	f := New(NewTenants(db))
	f.Metrics = metrics.NewRegistry()
	f.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return f, db
}

// do runs one request through the front and returns the recorder.
func do(f *Front, r *http.Request) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	f.ServeHTTP(w, r)
	return w
}

func get(f *Front, path, query string, hdr map[string]string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, path+"?query="+url.QueryEscape(query), nil)
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	return do(f, r)
}

// jsonBody decodes a response body, failing the test on malformed JSON.
func jsonBody(t *testing.T, w *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, w.Body.String())
	}
	return doc
}

const selectSV = `SELECT ?s ?v WHERE { ?s <http://ex/p> ?v }`

// goldenSelect is the SPARQL 1.1 JSON results document the fixture
// SELECT must produce, byte-comparable after one unmarshal.
const goldenSelect = `{
  "head": {"vars": ["s", "v"]},
  "results": {"bindings": [
    {"s": {"type": "uri", "value": "http://ex/s"},
     "v": {"type": "literal", "value": "1",
           "datatype": "http://www.w3.org/2001/XMLSchema#integer"}}
  ]}
}`

// TestGetSelectJSON: the protocol's simplest round trip — GET with a
// query URL parameter, SPARQL-JSON response — matched against a golden
// document.
func TestGetSelectJSON(t *testing.T) {
	f, _ := newTestFront(t)
	w := get(f, "/sparql", selectSV, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != ctSPARQLJSON {
		t.Fatalf("Content-Type %q, want %q", ct, ctSPARQLJSON)
	}
	var got, want any
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(goldenSelect), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result document mismatch:\ngot  %s\nwant %s", w.Body.String(), goldenSelect)
	}
}

// TestPostQueryBody: POST with an application/sparql-query body is
// equivalent to the GET form.
func TestPostQueryBody(t *testing.T) {
	f, _ := newTestFront(t)
	r := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(selectSV))
	r.Header.Set("Content-Type", ctSPARQLQuery)
	w := do(f, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	doc := jsonBody(t, w)
	if _, ok := doc["results"]; !ok {
		t.Fatalf("no results member: %s", w.Body.String())
	}
}

// TestPostForm: the form-encoded POST variant, with protocol
// parameters riding in the form.
func TestPostForm(t *testing.T) {
	f, _ := newTestFront(t)
	form := url.Values{"query": {selectSV}, "max-rows": {"5"}}
	r := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(form.Encode()))
	r.Header.Set("Content-Type", ctForm)
	w := do(f, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// TestAskJSON: ASK produces the boolean document form — a head with no
// vars and a top-level boolean.
func TestAskJSON(t *testing.T) {
	f, _ := newTestFront(t)
	w := get(f, "/sparql", `ASK { <http://ex/s> <http://ex/p> 1 }`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	doc := jsonBody(t, w)
	if doc["boolean"] != true {
		t.Fatalf("want boolean true, got %s", w.Body.String())
	}
	if _, ok := doc["results"]; ok {
		t.Fatal("ASK document must not carry a results member")
	}
}

// TestConstructTurtle: CONSTRUCT results are a graph, serialized as
// Turtle regardless of the Accept header's solution-format choice.
func TestConstructTurtle(t *testing.T) {
	f, _ := newTestFront(t)
	w := get(f, "/sparql", `CONSTRUCT { ?s <http://ex/q> ?v } WHERE { ?s <http://ex/p> ?v }`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, ctTurtle) {
		t.Fatalf("Content-Type %q, want %q", ct, ctTurtle)
	}
	if !strings.Contains(w.Body.String(), "http://ex/q") {
		t.Fatalf("constructed triple missing from Turtle:\n%s", w.Body.String())
	}
}

// TestCSVGolden: text/csv negotiation produces the SPARQL 1.1 CSV
// form, CRLF line endings included.
func TestCSVGolden(t *testing.T) {
	f, _ := newTestFront(t)
	w := get(f, "/sparql", selectSV, map[string]string{"Accept": "text/csv"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, ctCSV) {
		t.Fatalf("Content-Type %q, want %q", ct, ctCSV)
	}
	want := "s,v\r\nhttp://ex/s,1\r\n"
	if got := w.Body.String(); got != want {
		t.Fatalf("CSV body %q, want %q", got, want)
	}
}

// TestNonFiniteDoublesOverHTTP: NaN, ±Inf and −0 cells leave the JSON
// and CSV writers as xsd:double lexical forms, and each parses back
// through the SPARQL literal parser to the double it was.
func TestNonFiniteDoublesOverHTTP(t *testing.T) {
	f, db := newTestFront(t)
	vars := []string{"nan", "inf", "ninf", "nz"}
	want := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	const query = `PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?nan ?inf ?ninf ?nz WHERE { BIND("NaN"^^xsd:double AS ?nan) BIND(1e308 * 10 AS ?inf)
	BIND(-1e308 * 10 AS ?ninf) BIND("-0"^^xsd:double AS ?nz) }`
	parseBack := func(format, name, lex string, want float64) {
		t.Helper()
		res, err := db.Query(`SELECT ?x WHERE { BIND("` + lex + `"^^<http://www.w3.org/2001/XMLSchema#double> AS ?x) }`)
		if err != nil {
			t.Errorf("%s ?%s = %q does not parse back: %v", format, name, lex, err)
			return
		}
		got, ok := res.Rows[0][0].(rdf.Float)
		if !ok || math.Float64bits(float64(got)) != math.Float64bits(want) && !(math.IsNaN(float64(got)) && math.IsNaN(want)) {
			t.Errorf("%s ?%s = %q parses back to %v, want %v", format, name, lex, res.Rows[0][0], want)
		}
	}

	w := get(f, "/sparql", query, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("JSON: status %d: %s", w.Code, w.Body.String())
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct{ Value, Datatype string }
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil || len(doc.Results.Bindings) != 1 {
		t.Fatalf("JSON: %v, body %s", err, w.Body.String())
	}
	for i, v := range vars {
		cell := doc.Results.Bindings[0][v]
		if cell.Datatype != string(rdf.XSDDouble) {
			t.Errorf("JSON ?%s datatype %q", v, cell.Datatype)
		}
		parseBack("JSON", v, cell.Value, want[i])
	}

	w = get(f, "/sparql", query, map[string]string{"Accept": "text/csv"})
	recs, err := csv.NewReader(w.Body).ReadAll()
	if w.Code != http.StatusOK || err != nil || len(recs) != 2 || !slices.Equal(recs[0], vars) {
		t.Fatalf("CSV: status %d, %v, %q", w.Code, err, recs)
	}
	for i, v := range vars {
		parseBack("CSV", v, recs[1][i], want[i])
	}
}

// TestNaNSortsLastOverHTTP: the NaN repro answers over the front door
// as JSON exactly as the engine does — NaN after +INF in ORDER BY,
// failing every relational comparison in FILTER.
func TestNaNSortsLastOverHTTP(t *testing.T) {
	db := core.Open()
	if _, err := db.Update(difftest.Prefixes + difftest.NaNData); err != nil {
		t.Fatal(err)
	}
	f := New(NewTenants(db))
	f.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, c := range difftest.NaNCases {
		w := get(f, "/sparql", difftest.Prefixes+c.Query, nil)
		var doc struct {
			Results struct {
				Bindings []map[string]struct{ Value string }
			}
		}
		if err := json.Unmarshal(w.Body.Bytes(), &doc); w.Code != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, %v: %s", c.Query, w.Code, err, w.Body.String())
		}
		var got []string
		for _, b := range doc.Results.Bindings {
			got = append(got, strings.TrimPrefix(b["s"].Value, "http://ex/"))
		}
		if !slices.Equal(got, c.Want) {
			t.Errorf("%s: got %v, want %v", c.Query, got, c.Want)
		}
	}
}

// TestContentNegotiation walks the Accept matrix: defaults, q-values,
// wildcards, and the 406 fallthrough.
func TestContentNegotiation(t *testing.T) {
	f, _ := newTestFront(t)
	cases := []struct {
		accept   string
		status   int
		wantType string
	}{
		{"", http.StatusOK, ctSPARQLJSON},
		{"*/*", http.StatusOK, ctSPARQLJSON},
		{"application/sparql-results+json", http.StatusOK, ctSPARQLJSON},
		{"application/json", http.StatusOK, ctSPARQLJSON},
		{"application/*", http.StatusOK, ctSPARQLJSON},
		{"text/csv", http.StatusOK, ctCSV},
		{"text/*", http.StatusOK, ctCSV},
		{"text/csv;q=0.5, application/sparql-results+json", http.StatusOK, ctSPARQLJSON},
		{"application/sparql-results+json;q=0.1, text/csv;q=0.9", http.StatusOK, ctCSV},
		{"application/xml", http.StatusNotAcceptable, ""},
		{"text/csv;q=0", http.StatusNotAcceptable, ""},
	}
	for _, tc := range cases {
		w := get(f, "/sparql", selectSV, map[string]string{"Accept": tc.accept})
		if w.Code != tc.status {
			t.Errorf("Accept %q: status %d, want %d (%s)", tc.accept, w.Code, tc.status, w.Body.String())
			continue
		}
		if tc.wantType != "" && !strings.HasPrefix(w.Header().Get("Content-Type"), tc.wantType) {
			t.Errorf("Accept %q: Content-Type %q, want %q", tc.accept, w.Header().Get("Content-Type"), tc.wantType)
		}
	}
}

// TestAnalyzeMember: ?analyze=1 runs EXPLAIN ANALYZE and attaches the
// trace as the document's analyze member, leaving the result intact.
func TestAnalyzeMember(t *testing.T) {
	f, _ := newTestFront(t)
	r := httptest.NewRequest(http.MethodGet,
		"/sparql?analyze=1&query="+url.QueryEscape(selectSV), nil)
	w := do(f, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	doc := jsonBody(t, w)
	an, ok := doc["analyze"].(map[string]any)
	if !ok {
		t.Fatalf("no analyze member: %s", w.Body.String())
	}
	if an["plan"] == "" || an["rows"] != float64(1) {
		t.Fatalf("analyze member incomplete: %v", an)
	}
	if _, ok := doc["results"]; !ok {
		t.Fatal("analyze must not displace the results member")
	}
}

// TestUpdateEndpoint: POST /update applies the update and reports the
// affected-triple count; the change is visible to a following query.
func TestUpdateEndpoint(t *testing.T) {
	f, _ := newTestFront(t)
	r := httptest.NewRequest(http.MethodPost, "/update",
		strings.NewReader(`INSERT DATA { <http://ex/a> <http://ex/p> 2 }`))
	r.Header.Set("Content-Type", ctSPARQLUpd)
	w := do(f, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	doc := jsonBody(t, w)
	if doc["ok"] != true || doc["affected"] != float64(1) {
		t.Fatalf("update response %s", w.Body.String())
	}
	w = get(f, "/sparql", selectSV, nil)
	if n := strings.Count(w.Body.String(), `"type": "uri"`) + strings.Count(w.Body.String(), `"type":"uri"`); n != 2 {
		t.Fatalf("inserted triple not visible, got %d uri bindings: %s", n, w.Body.String())
	}
}

// TestUpdateMethodAndTypeGuards: GET on /update is 405; a query body on
// /update is 415.
func TestUpdateMethodAndTypeGuards(t *testing.T) {
	f, _ := newTestFront(t)
	r := httptest.NewRequest(http.MethodGet, "/update?query=x", nil)
	if w := do(f, r); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: status %d, want 405", w.Code)
	}
	r = httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(selectSV))
	r.Header.Set("Content-Type", ctSPARQLQuery)
	if w := do(f, r); w.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("query body on /update: status %d, want 415", w.Code)
	}
	r = httptest.NewRequest(http.MethodDelete, "/sparql", nil)
	if w := do(f, r); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /sparql: status %d, want 405", w.Code)
	}
}

// TestErrorClassesOnBothFrontDoors is the one table over every error
// class a request can end in, run through both encodings: the TCP code
// (core.WireError, which the framed server sends as is) and the HTTP
// status, body code and Retry-After. Query faults are 4xx, trapped
// panics 500, and drain, durability and unreachable shards 503.
func TestErrorClassesOnBothFrontDoors(t *testing.T) {
	cases := []struct {
		err      error
		tcpCode  string
		status   int
		httpCode string
	}{
		{engine.ErrQueryTimeout, "timeout", http.StatusRequestTimeout, "timeout"},
		{fmt.Errorf("query: %w", engine.ErrQueryTimeout), "timeout", http.StatusRequestTimeout, "timeout"},
		{context.DeadlineExceeded, "timeout", http.StatusRequestTimeout, "timeout"},
		{engine.ErrResourceLimit, "resource_limit", http.StatusUnprocessableEntity, "resource_limit"},
		{fmt.Errorf("bindings budget: %w", engine.ErrResourceLimit), "resource_limit", http.StatusUnprocessableEntity, "resource_limit"},
		{engine.ErrQueryCancelled, "cancelled", http.StatusRequestTimeout, "cancelled"},
		{context.Canceled, "cancelled", http.StatusRequestTimeout, "cancelled"},
		{engine.ErrInternal, "internal", http.StatusInternalServerError, "internal"},
		{fmt.Errorf("trapped: %w", engine.ErrInternal), "internal", http.StatusInternalServerError, "internal"},
		{errors.New("parse error: line 1 col 8: unexpected token"), "error", http.StatusBadRequest, "bad_query"},
		{fmt.Errorf("wal: %w", core.ErrDurability), "durability", http.StatusServiceUnavailable, "durability"},
		{fmt.Errorf("%w: shard a: refused", core.ErrShardUnavailable), "shard_unavailable", http.StatusServiceUnavailable, "shard_unavailable"},
		{core.ErrShutdown, "shutdown", http.StatusServiceUnavailable, "shutdown"},
	}
	for _, tc := range cases {
		if code, _ := core.WireError(tc.err); code != tc.tcpCode {
			t.Errorf("TCP code of %v = %q, want %q", tc.err, code, tc.tcpCode)
		}
		w := httptest.NewRecorder()
		writeExecError(w, tc.err)
		if w.Code != tc.status {
			t.Errorf("HTTP status of %v = %d, want %d", tc.err, w.Code, tc.status)
		}
		if doc := jsonBody(t, w); doc["code"] != tc.httpCode {
			t.Errorf("HTTP code of %v = %v, want %q", tc.err, doc["code"], tc.httpCode)
		}
		if ra := w.Header().Get("Retry-After"); (tc.status == http.StatusServiceUnavailable) != (ra == "1") {
			t.Errorf("Retry-After of %v (status %d) = %q", tc.err, w.Code, ra)
		}
	}
}

// TestParseErrorPosition: a malformed query is a 400 whose message
// carries the parser's position, so clients can point at the typo.
func TestParseErrorPosition(t *testing.T) {
	f, _ := newTestFront(t)
	w := get(f, "/sparql", `SELECT ?s WHERE { ?s <http://ex/p`, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
	doc := jsonBody(t, w)
	if doc["code"] != "bad_query" {
		t.Fatalf("code %v, want bad_query", doc["code"])
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "line ") {
		t.Fatalf("error message carries no position: %q", msg)
	}
}

// TestGuardErrorsOverHTTP: end to end, a deadline overrun is 408 and a
// row-cap overrun is 422 — never 500.
func TestGuardErrorsOverHTTP(t *testing.T) {
	db := core.Open()
	for i := 0; i < 200; i++ {
		addTriple(db.Dataset.Default, rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.Integer(i))
	}
	f := New(NewTenants(db))
	f.Metrics = metrics.NewRegistry()
	f.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))

	cross := `SELECT * WHERE { ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`
	r := httptest.NewRequest(http.MethodGet,
		"/sparql?timeout=50ms&query="+url.QueryEscape(cross), nil)
	w := do(f, r)
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("timeout overrun: status %d, want 408: %s", w.Code, w.Body.String())
	}
	if doc := jsonBody(t, w); doc["code"] != "timeout" {
		t.Fatalf("code %v, want timeout", doc["code"])
	}

	r = httptest.NewRequest(http.MethodGet,
		"/sparql?max-rows=10&query="+url.QueryEscape(`SELECT * WHERE { ?s <http://ex/p> ?v }`), nil)
	w = do(f, r)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("row cap overrun: status %d, want 422: %s", w.Code, w.Body.String())
	}
	if doc := jsonBody(t, w); doc["code"] != "resource_limit" {
		t.Fatalf("code %v, want resource_limit", doc["code"])
	}
}

// TestPanicSanitized: a panic inside a foreign function comes back as
// a 500 whose body names the class only — the panic value and stack
// stay in the server log.
func TestPanicSanitized(t *testing.T) {
	f, db := newTestFront(t)
	db.RegisterForeign("boom", 1, 1, func(args []rdf.Term) (rdf.Term, error) {
		panic("secret-internal-detail")
	})
	w := get(f, "/sparql", `SELECT (boom(?v) AS ?b) WHERE { ?s <http://ex/p> ?v }`, nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", w.Code, w.Body.String())
	}
	if strings.Contains(w.Body.String(), "secret-internal-detail") {
		t.Fatalf("response leaks the panic value: %s", w.Body.String())
	}
	if doc := jsonBody(t, w); doc["code"] != "internal" {
		t.Fatalf("code %v, want internal", doc["code"])
	}
	// The front keeps serving after the trapped panic.
	if w := get(f, "/sparql", selectSV, nil); w.Code != http.StatusOK {
		t.Fatalf("front unusable after panic: %d", w.Code)
	}
}

// opaqueTerm is a term the SPARQL-results formats cannot render.
type opaqueTerm struct{}

func (opaqueTerm) Kind() rdf.Kind { return rdf.KindTyped }
func (opaqueTerm) Key() string    { return "opaque" }
func (opaqueTerm) String() string { return "opaque" }

// TestUnencodableTermIsClean500: a term that cannot be serialized,
// deep inside a large result, answers 500 {"code":"internal"} with
// nothing of the 200 document sent — the JSON writer finishes the
// whole document before the first byte goes out.
func TestUnencodableTermIsClean500(t *testing.T) {
	f, db := newTestFront(t)
	var data strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&data, "<http://ex/big%d> <http://ex/n> %d .\n", i, i)
	}
	if err := db.LoadTurtle(data.String(), ""); err != nil {
		t.Fatal(err)
	}
	db.RegisterForeign("opaque", 1, 1, func(args []rdf.Term) (rdf.Term, error) {
		if args[0] == rdf.Integer(2900) {
			return opaqueTerm{}, nil
		}
		return args[0], nil
	})
	w := get(f, "/sparql", `SELECT ?s (opaque(?v) AS ?o) WHERE { ?s <http://ex/n> ?v }`, nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %.200s", w.Code, w.Body.String())
	}
	if doc := jsonBody(t, w); doc["code"] != "internal" || len(doc) != 2 {
		t.Fatalf("body is not the bare error document: %.200s", w.Body.String())
	}
	if cl := w.Header().Get("Content-Length"); cl != "" {
		t.Fatalf("Content-Length %q of the abandoned document leaked into the error response", cl)
	}
	// The same query without the poisoned row is a 200 whose declared
	// length is its body's.
	w = get(f, "/sparql", `SELECT ?s (opaque(?v) AS ?o) WHERE { ?s <http://ex/n> ?v FILTER(?v < 2900) }`, nil)
	if w.Code != http.StatusOK || w.Header().Get("Content-Length") != fmt.Sprint(w.Body.Len()) {
		t.Fatalf("status %d, Content-Length %q, body %d bytes", w.Code, w.Header().Get("Content-Length"), w.Body.Len())
	}
	if n := len(jsonBody(t, w)["results"].(map[string]any)["bindings"].([]any)); n != 2900 {
		t.Fatalf("%d bindings, want 2900", n)
	}
}

// TestHandlerPanicTrapped: a panic in the handler itself (here: a
// front misconfigured with no tenant registry) is trapped into a
// sanitized 500, never a crashed connection.
func TestHandlerPanicTrapped(t *testing.T) {
	f := New(nil)
	f.Metrics = metrics.NewRegistry()
	f.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	w := get(f, "/sparql", selectSV, nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if strings.Contains(w.Body.String(), "goroutine") {
		t.Fatalf("response leaks a stack: %s", w.Body.String())
	}
}

// TestBadLimitParams: malformed tightening parameters are 400s before
// any execution.
func TestBadLimitParams(t *testing.T) {
	f, _ := newTestFront(t)
	for _, qs := range []string{"timeout=abc", "timeout=-1s", "max-rows=x", "max-rows=0", "max-bindings=-2"} {
		r := httptest.NewRequest(http.MethodGet, "/sparql?"+qs+"&query="+url.QueryEscape(selectSV), nil)
		if w := do(f, r); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", qs, w.Code)
		}
	}
}

// TestUnknownEndpointsAndTenants: path routing's negative space.
func TestUnknownEndpointsAndTenants(t *testing.T) {
	f, _ := newTestFront(t)
	for _, path := range []string{"/", "/query", "/tenants/", "/tenants/x", "/tenants/x/other"} {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if w := do(f, r); w.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, w.Code)
		}
	}
	w := get(f, "/tenants/nosuch/sparql", selectSV, nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want 404", w.Code)
	}
	if doc := jsonBody(t, w); doc["code"] != "unknown_tenant" {
		t.Fatalf("code %v, want unknown_tenant", doc["code"])
	}
	w = get(f, "/sparql", selectSV, map[string]string{"X-SSDM-Tenant": "nosuch"})
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown header tenant: status %d, want 404", w.Code)
	}
}

// TestTenantDatasetIsolation: the same query against two tenants sees
// two disjoint datasets, whether the tenant is picked by path or by
// header.
func TestTenantDatasetIsolation(t *testing.T) {
	f, _ := newTestFront(t)
	acme := core.Open()
	if err := acme.LoadTurtle(`<http://acme/s> <http://ex/p> 42 .`, ""); err != nil {
		t.Fatal(err)
	}
	if err := f.Tenants.Add(&Tenant{Name: "acme", DB: acme}); err != nil {
		t.Fatal(err)
	}

	w := get(f, "/tenants/acme/sparql", selectSV, nil)
	if !strings.Contains(w.Body.String(), "http://acme/s") ||
		strings.Contains(w.Body.String(), "http://ex/s") {
		t.Fatalf("acme-by-path sees wrong dataset: %s", w.Body.String())
	}
	w = get(f, "/sparql", selectSV, map[string]string{"X-SSDM-Tenant": "acme"})
	if !strings.Contains(w.Body.String(), "http://acme/s") {
		t.Fatalf("acme-by-header sees wrong dataset: %s", w.Body.String())
	}
	w = get(f, "/sparql", selectSV, nil)
	if strings.Contains(w.Body.String(), "http://acme/s") {
		t.Fatalf("default tenant sees acme data: %s", w.Body.String())
	}
}

// TestHTTPMetricsFamilies: the http_* families register and count.
func TestHTTPMetricsFamilies(t *testing.T) {
	f, _ := newTestFront(t)
	get(f, "/sparql", selectSV, nil)
	get(f, "/sparql", `broken {`, nil)

	w := httptest.NewRecorder()
	f.Registry().Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := w.Body.String()
	for _, want := range []string{
		`http_requests_total{tenant="default"} 2`,
		`http_responses_total{status="200"} 1`,
		`http_responses_total{status="400"} 1`,
		"http_request_duration_seconds",
		"http_inflight 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, body)
		}
	}
}

// TestHTTPSlowQueryLog: with every request slow, a query writes one
// "slow query" line carrying the HTTP front's attributes (proto, tenant,
// status) beside duration and text; a request with no query text (a 404)
// writes none.
func TestHTTPSlowQueryLog(t *testing.T) {
	f, _ := newTestFront(t)
	var out strings.Builder
	f.Logger = slog.New(slog.NewJSONHandler(&out, nil))
	f.SlowQuery = time.Nanosecond
	get(f, "/nowhere", selectSV, nil)
	if out.Len() != 0 {
		t.Fatalf("a 404 was logged as a slow query:\n%s", out.String())
	}
	get(f, "/sparql", selectSV, nil)
	for _, want := range []string{`"msg":"slow query"`, `"proto":"http"`, `"tenant":"default"`,
		`"status":200`, `"duration":`, `"query":"SELECT ?s ?v`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("slow-query log missing %s:\n%s", want, out.String())
		}
	}
}

// parseDur is a test helper tolerating the empty string.
func parseDur(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	return time.ParseDuration(s)
}
