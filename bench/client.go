package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"scisparql/internal/engine"
	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
	"scisparql/internal/shard"
	"scisparql/internal/ssdmclient"
)

// reply is one completed request as the client saw it.
type reply struct {
	lat   time.Duration // send to last byte (HTTP) / decoded result (ssdmclient)
	ans   answer
	trace *execTrace // server-side trace, when the request asked for one
}

// errRefused marks a 429/503: the front door turned the request away.
var errRefused = errors.New("refused")

// client is one closed-loop client: one keep-alive connection to the
// workload's front door.
type client interface {
	// do sends one query and decodes the answer. traced asks the server
	// for its execution trace where the transport can carry one.
	do(ctx context.Context, text string, o op, traced bool) (reply, error)
	// update sends one update statement and returns once it is
	// acknowledged.
	update(ctx context.Context, text string) (time.Duration, error)
	close()
}

func (e *env) newClient() (client, error) {
	if e.isHTTP() {
		return newHTTPClient(e.httpAddr, 1), nil
	}
	c, err := ssdmclient.Connect(e.tcpAddr)
	if err != nil {
		return nil, err
	}
	// A reconnect would hide a dropped connection inside one op's
	// latency; the benchmark wants it counted as a failure.
	c.SetReconnect(0, 0)
	return &tcpClient{c: c}, nil
}

// httpClient speaks the SPARQL 1.1 protocol: light ops as GET
// /sparql?query=, everything else as POST application/sparql-query.
type httpClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient(addr string, conns int) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &httpClient{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// queryRequest builds the SPARQL-protocol request for op o: light ops
// as GET with the text in the query string, the rest as POST bodies.
func queryRequest(ctx context.Context, base, text string, o op) (*http.Request, error) {
	var (
		req *http.Request
		err error
	)
	if o.Class == classLight {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/sparql?query="+url.QueryEscape(text), nil)
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/sparql", strings.NewReader(text))
	}
	if err != nil {
		return nil, err
	}
	if o.Class != classLight {
		req.Header.Set("Content-Type", "application/sparql-query")
	}
	if o.Format == fmtCSV {
		req.Header.Set("Accept", "text/csv")
	} else {
		req.Header.Set("Accept", "application/sparql-results+json")
	}
	return req, nil
}

func (c *httpClient) do(ctx context.Context, text string, o op, _ bool) (reply, error) {
	req, err := queryRequest(ctx, c.base, text, o)
	if err != nil {
		return reply{}, err
	}
	body, lat, err := c.roundTrip(req)
	if err != nil {
		return reply{lat: lat}, err
	}
	rep := reply{lat: lat}
	if o.Format == fmtCSV {
		rep.ans, err = answerOfCSV(body)
	} else {
		rep.ans, err = answerOfJSON(body)
	}
	return rep, err
}

func (c *httpClient) update(ctx context.Context, text string) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/update", strings.NewReader(text))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/sparql-update")
	_, lat, err := c.roundTrip(req)
	return lat, err
}

func (c *httpClient) roundTrip(req *http.Request) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, time.Since(t0), err
	}
	body, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return nil, lat, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body, lat, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil, lat, fmt.Errorf("%w: HTTP %d", errRefused, resp.StatusCode)
	default:
		return nil, lat, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
}

// tcpClient is the paper's client/server workflow path: ssdmclient
// over the framed-TCP protocol.
type tcpClient struct{ c *ssdmclient.Client }

func (c *tcpClient) close() { c.c.Close() }

func (c *tcpClient) do(ctx context.Context, text string, _ op, traced bool) (reply, error) {
	var (
		res *ssdmclient.Result
		ti  *protocol.TraceInfo
		err error
	)
	t0 := time.Now()
	if traced {
		res, ti, err = c.c.ExplainAnalyze(ctx, text, ssdmclient.Guards{})
	} else {
		res, err = c.c.QueryContext(ctx, text)
	}
	rep := reply{lat: time.Since(t0)}
	if err != nil {
		return rep, err
	}
	if ti != nil {
		rep.trace = traceOfWire(ti)
	}
	rep.ans, err = answerOfTerms(res.Vars, res.Rows)
	return rep, err
}

func (c *tcpClient) update(ctx context.Context, text string) (time.Duration, error) {
	t0 := time.Now()
	_, err := c.c.UpdateContext(ctx, text)
	return time.Since(t0), err
}

// execTrace is the part of an execution trace the layer table uses,
// filled from engine.Trace (embedded QueryAnalyze) or from its wire
// form (ssdmclient.ExplainAnalyze).
type execTrace struct {
	Parse, Total, Where, Agg, Proj, Sort, ChunkWait time.Duration
	ChunkFetches, Bindings, MatchCalls              int64
	Rows                                            int
	PlanCached, Vectorized                          bool
}

func traceOfEngine(t *engine.Trace) *execTrace {
	return &execTrace{
		Parse: time.Duration(t.ParseNanos), Total: time.Duration(t.TotalNanos),
		Where: time.Duration(t.WhereNanos), Agg: time.Duration(t.AggNanos),
		Proj: time.Duration(t.ProjNanos), Sort: time.Duration(t.SortNanos),
		ChunkWait: time.Duration(t.ChunkWaitNanos), ChunkFetches: t.ChunkFetches,
		Bindings: t.Bindings, MatchCalls: t.MatchCalls, Rows: t.Rows,
		PlanCached: t.PlanCached, Vectorized: t.Vectorized,
	}
}

func traceOfWire(t *protocol.TraceInfo) *execTrace {
	return &execTrace{
		Parse: time.Duration(t.ParseNS), Total: time.Duration(t.TotalNS),
		Where: time.Duration(t.WhereNS), Agg: time.Duration(t.AggNS),
		Proj: time.Duration(t.ProjNS), Sort: time.Duration(t.SortNS),
		ChunkWait: time.Duration(t.ChunkWaitNS), ChunkFetches: t.ChunkFetches,
		Bindings: t.Bindings, MatchCalls: t.MatchCalls, Rows: t.Rows,
		PlanCached: t.PlanCached, Vectorized: t.Vectorized,
	}
}

// timedShard wraps a coordinator leg so a traced replay can time each
// RemoteShard.Query/Scan from outside. A call is recorded only when
// its context carries a legLog, so the other client's concurrent
// requests through the same coordinator are not attributed to it.
type timedShard struct {
	shard.Shard
}

type legLogKey struct{}

// legLog collects the leg calls of one replayed query.
type legLog struct {
	mu    sync.Mutex
	calls []legCall
}

type legCall struct {
	shard      string
	start, end time.Time
}

func (l *legLog) add(c legCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (t *timedShard) record(ctx context.Context, start time.Time) {
	if l, ok := ctx.Value(legLogKey{}).(*legLog); ok {
		l.add(legCall{shard: t.Name(), start: start, end: time.Now()})
	}
}

func (t *timedShard) Query(ctx context.Context, src string, lim engine.Limits) (*engine.Results, error) {
	defer t.record(ctx, time.Now())
	return t.Shard.Query(ctx, src, lim)
}

func (t *timedShard) Scan(ctx context.Context, s, p, o rdf.Term, emit func(s, p, o rdf.Term) bool) error {
	defer t.record(ctx, time.Now())
	return t.Shard.Scan(ctx, s, p, o, emit)
}
