// Package httpfront is SSDM's HTTP front door: an HTTP/1.1 endpoint
// speaking the W3C SPARQL 1.1 protocol shape, so load balancers,
// browsers and standard SPARQL clients can reach the store without
// speaking the custom framed-TCP protocol of internal/server.
//
// Endpoints (per tenant, selected by path or the X-SSDM-Tenant
// header):
//
//	GET  /sparql?query=...             query via URL parameter
//	POST /sparql                       query: application/sparql-query body
//	                                   or form-encoded query=... (update=... accepted too)
//	POST /update                       update: application/sparql-update body
//	                                   or form-encoded update=...
//	GET/POST /tenants/<name>/sparql    the same, for a named tenant
//	POST     /tenants/<name>/update
//
// SELECT and ASK results are returned as SPARQL 1.1 JSON
// (application/sparql-results+json, the default) or CSV (text/csv) by
// Accept-header content negotiation; CONSTRUCT/DESCRIBE results are
// Turtle (text/turtle). ?analyze=1 attaches the EXPLAIN ANALYZE trace
// as a top-level "analyze" member of the JSON document. ?timeout=,
// ?max-rows= and ?max-bindings= tighten (never loosen) the tenant's
// guard profile per request.
//
// Multi-tenancy and admission control: each tenant has its own
// dataset, guard profile and bounded in-flight-query semaphore; a
// global semaphore bounds the process. Requests beyond a cap are
// rejected immediately with 429 and a Retry-After header — admission
// is fail-fast, not queueing — and requests arriving during shutdown
// drain get 503. See docs/OPERATIONS.md for the status-code table.
package httpfront

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/metrics"
	"scisparql/internal/protocol"
	"scisparql/internal/turtle"
)

// Media types the front door produces.
const (
	ctSPARQLJSON  = "application/sparql-results+json"
	ctCSV         = "text/csv"
	ctTurtle      = "text/turtle"
	ctSPARQLQuery = "application/sparql-query"
	ctSPARQLUpd   = "application/sparql-update"
	ctForm        = "application/x-www-form-urlencoded"
	ctJSON        = "application/json"
)

// maxRequestBody bounds POSTed query documents; a SPARQL text beyond
// this is hostile, not a workload.
const maxRequestBody = 1 << 20

// Front is the HTTP front door over a tenant registry. It implements
// http.Handler; serve it with an *http.Server of your choosing and
// call Shutdown when draining. The zero value is not usable — use New.
type Front struct {
	// Tenants resolves request tenants. Set by New.
	Tenants *Tenants

	// Shell supplies Logger, SlowQuery and Metrics (the registry the
	// front instruments under http_* families; set before serving), the
	// drain switch and the panic trap.
	core.Shell

	// GlobalMaxInflight bounds concurrently executing queries across
	// all tenants (0 = unbounded). Set before serving.
	GlobalMaxInflight int

	instOnce  sync.Once
	inst      *httpInstruments
	globalSem chan struct{}
	inflight  atomic.Int64
}

// retryAfter is the advisory delay, in seconds, sent with every 429 and
// 503 response.
const retryAfter = "1"

// New creates a front door over a tenant registry.
func New(ts *Tenants) *Front {
	return &Front{Tenants: ts}
}

// Shutdown puts the front into drain mode: requests already executing
// have their contexts cancelled (they answer with their typed error),
// and every request arriving afterwards is refused with 503 +
// Retry-After, before its path is resolved. The caller shuts the
// enclosing http.Server down alongside; Shutdown is idempotent.
func (f *Front) Shutdown() { f.Drain() }

// httpInstruments holds the front door's registered metric handles.
type httpInstruments struct {
	requests *metrics.CounterVec
	statuses *metrics.CounterVec
	rejected *metrics.CounterVec
	latency  *metrics.Histogram
	slow     *metrics.Counter
}

// instrumentSet registers the http_* metric families and sizes the
// global admission semaphore on first use.
func (f *Front) instrumentSet() *httpInstruments {
	f.instOnce.Do(func() {
		if f.GlobalMaxInflight > 0 {
			f.globalSem = make(chan struct{}, f.GlobalMaxInflight)
		}
		r := f.Registry()
		f.inst = &httpInstruments{
			requests: r.CounterVec("http_requests_total", "HTTP SPARQL-protocol requests, by tenant.", "tenant"),
			statuses: r.CounterVec("http_responses_total", "HTTP responses, by status code.", "status"),
			rejected: r.CounterVec("http_rejected_total", "Requests rejected by admission control (429), by tenant.", "tenant"),
			latency:  r.Histogram("http_request_duration_seconds", "Latency of HTTP query/update requests.", nil),
			slow:     r.Counter("http_slow_queries_total", "HTTP requests at or above the slow-query threshold."),
		}
		r.GaugeFunc("http_inflight", "HTTP queries currently executing across all tenants.",
			func() float64 { return float64(f.inflight.Load()) })
	})
	return f.inst
}

// request carries one parsed protocol request through execution.
type request struct {
	tenant   *Tenant
	text     string // query or update text
	isUpdate bool
	analyze  bool
	limits   engine.Limits // per-request tightening, zero = none
	accept   string        // negotiated response media type
}

// ServeHTTP runs one request in the request shell — drain refusal,
// panic trap, client and drain cancellation — and counts it.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	in := f.instrumentSet()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	var tenantName, text string
	dur, err := f.Serve(r.Context(), func(ctx context.Context) error {
		var err error
		tenantName, text, err = f.route(ctx, sw, r)
		return err
	})
	if err != nil {
		writeExecError(sw, err)
	}

	in.requests.With(tenantName).Inc()
	in.statuses.With(strconv.Itoa(sw.status)).Inc()
	if sw.status == http.StatusTooManyRequests {
		in.rejected.With(tenantName).Inc()
	}
	if text != "" {
		f.Observe(in.latency, in.slow, dur, func() (string, []any) {
			return text, []any{"proto", "http", "tenant", tenantName, "status", sw.status}
		})
	}
}

// statusWriter records the status code written so the observability
// wrapper can count it.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.status = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// route dispatches one request and returns the tenant name and (when
// the request carried one) the query text, for the metrics/slow-log
// wrapper, and the execution error for ServeHTTP to encode. Protocol
// failures found before execution are written here.
func (f *Front) route(ctx context.Context, w http.ResponseWriter, r *http.Request) (tenantName, text string, err error) {
	// Resolve the endpoint and tenant from the path.
	name := r.Header.Get("X-SSDM-Tenant")
	endpoint := strings.TrimPrefix(r.URL.Path, "/")
	if rest, ok := strings.CutPrefix(r.URL.Path, "/tenants/"); ok {
		if n, ep, _ := strings.Cut(rest, "/"); n != "" && (ep == "sparql" || ep == "update") {
			name, endpoint = n, ep
		}
	}
	if endpoint != "sparql" && endpoint != "update" {
		writeError(w, http.StatusNotFound, "not_found", "no such endpoint: "+r.URL.Path)
		return name, "", nil
	}
	if name == "" {
		name = DefaultTenant
	}
	tenant, ok := f.Tenants.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_tenant", "unknown tenant "+strconv.Quote(name))
		return name, "", nil
	}

	req, herr := f.parseRequest(r, tenant, endpoint)
	if herr != nil {
		writeError(w, herr.status, herr.code, herr.msg)
		return name, "", nil
	}
	return name, req.text, f.execute(ctx, w, req)
}

// httpError is a protocol-level failure detected before execution.
type httpError struct {
	status int
	code   string
	msg    string
}

// parseRequest extracts the query/update text, per-request limit
// tightening and negotiated response type.
func (f *Front) parseRequest(r *http.Request, tenant *Tenant, endpoint string) (*request, *httpError) {
	req := &request{tenant: tenant, isUpdate: endpoint == "update"}

	q := r.URL.Query()
	switch r.Method {
	case http.MethodGet:
		if req.isUpdate {
			return nil, &httpError{http.StatusMethodNotAllowed, "method_not_allowed", "updates require POST"}
		}
		req.text = q.Get("query")
		if req.text == "" {
			return nil, &httpError{http.StatusBadRequest, "bad_request", "missing query parameter"}
		}
	case http.MethodPost:
		ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
		if err != nil && r.Header.Get("Content-Type") != "" {
			return nil, &httpError{http.StatusUnsupportedMediaType, "bad_content_type", "unparseable Content-Type"}
		}
		body := http.MaxBytesReader(nil, r.Body, maxRequestBody)
		switch ct {
		case ctSPARQLQuery, ctSPARQLUpd:
			b, err := io.ReadAll(body)
			if err != nil {
				return nil, &httpError{http.StatusBadRequest, "bad_request", "reading body: " + err.Error()}
			}
			req.text = string(b)
			if ct == ctSPARQLUpd {
				req.isUpdate = true
			} else if req.isUpdate {
				return nil, &httpError{http.StatusUnsupportedMediaType, "bad_content_type",
					"the update endpoint takes application/sparql-update or form-encoded update="}
			}
		case ctForm, "":
			r.Body = body
			if err := r.ParseForm(); err != nil {
				return nil, &httpError{http.StatusBadRequest, "bad_request", "parsing form: " + err.Error()}
			}
			if upd := r.PostForm.Get("update"); upd != "" {
				req.text, req.isUpdate = upd, true
			} else if query := r.PostForm.Get("query"); query != "" && !req.isUpdate {
				req.text = query
			}
			if req.text == "" {
				return nil, &httpError{http.StatusBadRequest, "bad_request", "missing query/update form field"}
			}
			// Form fields may carry the protocol parameters too.
			q = mergeValues(q, r.PostForm)
		default:
			return nil, &httpError{http.StatusUnsupportedMediaType, "bad_content_type",
				"unsupported Content-Type " + strconv.Quote(ct)}
		}
	default:
		return nil, &httpError{http.StatusMethodNotAllowed, "method_not_allowed", "use GET or POST"}
	}

	req.analyze = isTruthy(q.Get("analyze"))
	lim, herr := parseLimitParams(q)
	if herr != nil {
		return nil, herr
	}
	req.limits = lim

	accept, herr := negotiate(r.Header.Get("Accept"), req.isUpdate)
	if herr != nil {
		return nil, herr
	}
	req.accept = accept
	return req, nil
}

// execute admits a request, runs it against its tenant under ctx and
// writes a successful response; an execution error is returned for
// ServeHTTP to encode.
func (f *Front) execute(ctx context.Context, w http.ResponseWriter, req *request) error {
	// Admission: global slot first, then the tenant's. Fail fast with
	// 429 — clients retry with backoff; queueing here would hold
	// connection state for work the server cannot start.
	if f.globalSem != nil {
		select {
		case f.globalSem <- struct{}{}:
			defer func() { <-f.globalSem }()
		default:
			w.Header().Set("Retry-After", retryAfter)
			writeError(w, http.StatusTooManyRequests, "overloaded", "server at capacity, retry later")
			return nil
		}
	}
	if !req.tenant.tryAcquire() {
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "overloaded",
			"tenant "+strconv.Quote(req.tenant.Name)+" at its in-flight cap, retry later")
		return nil
	}
	defer req.tenant.release()
	f.inflight.Add(1)
	defer f.inflight.Add(-1)

	// Per-request parameters tighten the tenant profile; the tenant
	// profile tightens the server-wide guards inside QueryLimits.
	lim := req.limits.Tighten(req.tenant.Limits)

	if req.isUpdate {
		n, err := req.tenant.DB.UpdateLimits(ctx, req.text, lim)
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", ctJSON)
		fmt.Fprintf(w, "{\"ok\":true,\"affected\":%d}\n", n)
		return nil
	}

	var (
		res *engine.Results
		tr  *engine.Trace
		err error
	)
	if req.analyze {
		res, tr, err = req.tenant.DB.QueryAnalyze(ctx, req.text, lim)
	} else {
		res, err = req.tenant.DB.QueryLimits(ctx, req.text, lim)
	}
	if err != nil {
		return err
	}
	writeResults(w, req, res, tr)
	return nil
}

// statusFor maps each wire error code (core.WireError) onto the HTTP
// status space. Query-fault failures — timeouts, guard-limit overruns,
// cancellation, parse and evaluation errors — are 4xx: the server is
// healthy and the request (or its budget) is the problem. Trapped
// panics are 500. Drain, a durability failure (the write-ahead log
// cannot accept or sync the update: it was NOT applied and may be
// retried verbatim) and an unreachable shard (partial results are
// suppressed, not served) are 503 with Retry-After.
var statusFor = map[string]int{
	protocol.CodeError:            http.StatusBadRequest,
	protocol.CodeTimeout:          http.StatusRequestTimeout,
	protocol.CodeCancelled:        http.StatusRequestTimeout,
	protocol.CodeResourceLimit:    http.StatusUnprocessableEntity,
	protocol.CodeInternal:         http.StatusInternalServerError,
	protocol.CodeShutdown:         http.StatusServiceUnavailable,
	protocol.CodeDurability:       http.StatusServiceUnavailable,
	protocol.CodeShardUnavailable: http.StatusServiceUnavailable,
}

// writeExecError encodes a failed request as its status and JSON error
// body. A parse or evaluation error, the wire's generic "error", is
// "bad_query" here.
func writeExecError(w http.ResponseWriter, err error) {
	code, msg := core.WireError(err)
	status := statusFor[code]
	if code == protocol.CodeError {
		code = "bad_query"
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfter)
	}
	writeError(w, status, code, msg)
}

// writeResults serializes a successful query result in the negotiated
// format.
func writeResults(w http.ResponseWriter, req *request, res *engine.Results, tr *engine.Trace) {
	if res.Graph != nil {
		w.Header().Set("Content-Type", ctTurtle+"; charset=utf-8")
		_ = turtle.Write(w, res.Graph, nil) // on failure the headers are gone: nothing to do
		return
	}
	switch req.accept {
	case ctCSV:
		w.Header().Set("Content-Type", ctCSV+"; charset=utf-8")
		_ = engine.WriteCSV(w, res)
	default:
		var analyze []byte
		if tr != nil {
			analyze, _ = json.Marshal(analyzeJSON(tr)) // scalars only: cannot fail
		}
		// The document is complete before the first byte goes out, so an
		// unencodable term still answers a clean 500.
		err := engine.EncodeJSON(res, analyze, func(doc []byte) error {
			w.Header().Set("Content-Type", ctSPARQLJSON)
			w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
			_, _ = w.Write(doc) // a failed write means the client is gone
			return nil
		})
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", "serializing result: "+err.Error())
		}
	}
}

// analyzeJSON renders an execution trace as the "analyze" member of a
// JSON results document.
func analyzeJSON(tr *engine.Trace) map[string]any {
	return map[string]any{
		"plan":         tr.Plan,
		"plan_cached":  tr.PlanCached,
		"parse_ns":     tr.ParseNanos,
		"total_ns":     tr.TotalNanos,
		"where_ns":     tr.WhereNanos,
		"rows":         tr.Rows,
		"bindings":     tr.Bindings,
		"match_calls":  tr.MatchCalls,
		"chunk_fetch":  tr.ChunkFetches,
		"chunk_waitns": tr.ChunkWaitNanos,
		"text":         tr.String(),
	}
}
