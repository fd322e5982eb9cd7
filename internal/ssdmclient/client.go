// Package ssdmclient is the client side of SSDM's client-server mode:
// the Go equivalent of the Matlab interface of dissertation chapter 7.
// A numeric workflow connects, stores result arrays together with
// RDF metadata describing the experiment, and later retrieves data by
// SciSPARQL queries over that metadata — without abandoning its native
// array representation.
package ssdmclient

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/engine"
	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
)

// Client is a connection to an SSDM server. A Client is safe for
// concurrent use; requests are issued one at a time over the single
// connection.
//
// The protocol is a stream of frames with no request IDs, so after a
// transport-level write or read failure the stream may be
// desynchronized (a partial frame on the wire would pair responses
// with the wrong requests). The client marks itself broken on such a
// failure and closes the connection — but unlike a hard failure, a
// broken client heals: the next call redials the server (any
// operation is safe to issue on a fresh connection, since the broken
// request was never delivered on it), and idempotent operations
// (Ping, Query, Stats) additionally retry with exponential backoff
// when the failure happened mid-round-trip. Non-idempotent operations
// (Update, StoreArray, ...) never auto-retry after a send: the server
// may have applied them. Server-reported errors (resp.OK == false)
// leave the stream aligned and neither break the client nor trigger
// reconnects.
type Client struct {
	mu      sync.Mutex
	addr    string
	conn    net.Conn
	wire    *protocol.Wire
	timeout time.Duration
	broken  error // first transport failure; nil while usable

	// Reconnect policy (SetReconnect): attempts is the total number of
	// tries per idempotent call; backoff is the first retry delay,
	// doubling per retry.
	attempts int
	backoff  time.Duration
}

// Default reconnect policy: up to 3 tries per idempotent call, with
// 50ms → 100ms backoff between them.
const (
	defaultAttempts = 3
	defaultBackoff  = 50 * time.Millisecond
)

// Connect dials an SSDM server.
func Connect(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, conn: conn, wire: protocol.NewWire(conn, conn), attempts: defaultAttempts, backoff: defaultBackoff}, nil
}

// SetTimeout bounds each subsequent round trip: the deadline covers
// writing the request and reading the response. Zero (the default)
// means no deadline. A timed-out round trip breaks the connection like
// any other transport failure (the response may still be in flight),
// after which the reconnect policy applies.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// SetReconnect configures the automatic reconnect policy: attempts is
// the total number of tries an idempotent call may use (1 = never
// retry after a failure mid-call, but still redial a known-broken
// connection at call start); backoff is the delay before the first
// retry, doubling on each subsequent one. attempts <= 0 disables
// reconnection entirely, restoring fail-fast semantics: once broken,
// every call fails with the original cause.
func (c *Client) SetReconnect(attempts int, backoff time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts = attempts
	c.backoff = backoff
}

// Close releases the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broken = fmt.Errorf("ssdm: client closed")
	c.attempts = 0 // closed is deliberate: never auto-redial
	return c.conn.Close()
}

// ServerError is a failure reported by the server with the stream
// still aligned. Its Code (one of the protocol.Code constants) makes
// it classifiable with errors.Is against the engine's typed errors:
//
//	errors.Is(err, engine.ErrQueryTimeout)  // code "timeout"
//	errors.Is(err, engine.ErrResourceLimit) // code "resource_limit"
type ServerError struct {
	Code string
	Msg  string
}

// Error formats the server-reported failure.
func (e *ServerError) Error() string { return "ssdm: " + e.Msg }

// Is maps wire error codes back onto the engine's sentinel errors.
func (e *ServerError) Is(target error) bool {
	switch target {
	case engine.ErrQueryTimeout:
		return e.Code == protocol.CodeTimeout
	case engine.ErrResourceLimit:
		return e.Code == protocol.CodeResourceLimit
	case engine.ErrQueryCancelled:
		return e.Code == protocol.CodeCancelled
	case engine.ErrInternal:
		return e.Code == protocol.CodeInternal
	}
	return false
}

// Guards are per-request execution bounds shipped with a query. Zero
// fields defer to the server's configured defaults; non-zero fields
// can tighten them, never loosen.
type Guards struct {
	Timeout     time.Duration // wall-clock deadline for the request; a sooner ctx deadline replaces it
	MaxRows     int           // cap on result rows
	MaxBindings int64         // cap on intermediate bindings
}

func (g Guards) apply(req *protocol.Request) {
	req.TimeoutMS = int64(g.Timeout / time.Millisecond)
	req.MaxRows = g.MaxRows
	req.MaxBindings = g.MaxBindings
}

// peerGrace is how long past ctx's deadline the socket of a peer-timed
// round trip stays open for the peer's typed timeout reply. It has to
// cover the peer noticing the deadline (it polls between batches of
// work), encoding the reply, and the way back. Measured over loopback
// on 2 cores (EXPERIMENTS.md, issue 20, "The grace"): the reply lands
// 1-2 ms after the deadline in the median and 34 ms at worst on an idle
// host, 56 ms in the median and 120 ms at worst with every core
// saturated by other work. 250 ms is twice that worst case; it is also
// what a peer that never answers costs its caller beyond the deadline.
const peerGrace = 250 * time.Millisecond

// roundTrip issues one request and reads its response, redialing and
// retrying per the reconnect policy. idempotent marks requests that
// are safe to re-send after a mid-call transport failure.
//
// Who enforces ctx's deadline follows from the op. A request of a
// protocol.QueryClass op carries what remains of the deadline at send
// time as timeout_ms (never loosening a Guards.Timeout already on it),
// so the peer stops working when it passes and answers a typed timeout
// on a stream that stays aligned; the socket deadline trails by
// peerGrace to let that answer arrive. For any other op the deadline
// cuts the socket, which breaks the connection. Cancellation pokes the
// socket at once either way.
func (c *Client) roundTrip(ctx context.Context, req *protocol.Request, idempotent bool) (*protocol.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tries := c.attempts
	if tries < 1 {
		tries = 1
	}
	var lastErr error
	for attempt := 0; attempt < tries; attempt++ {
		if attempt > 0 {
			// Exponential backoff before each retry.
			if err := sleepCtx(ctx, c.backoff<<(attempt-1)); err != nil {
				return nil, ctxError(ctx)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, ctxError(ctx)
		}
		if c.broken != nil {
			// The request has not been sent on this connection, so a
			// redial is safe for any operation — but only when the
			// policy allows reconnection at all.
			if c.attempts <= 0 {
				return nil, fmt.Errorf("ssdm: connection broken by earlier failure: %w", c.broken)
			}
			if err := c.redial(ctx); err != nil {
				lastErr = err
				continue
			}
		}
		resp, err := c.attemptLocked(ctx, req)
		if err == nil {
			if !resp.OK {
				// Server-reported failure: the stream stays aligned, and the
				// response may still carry a payload (e.g. the partial trace
				// of a timed-out EXPLAIN ANALYZE), so return it with the
				// error.
				return resp, &ServerError{Code: resp.Code, Msg: resp.Error}
			}
			return resp, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The transport error is collateral of our own deadline
			// poke or cancellation; report the context cause.
			return nil, ctxError(ctx)
		}
		lastErr = err
		if !idempotent {
			// The request may have reached the server; re-sending could
			// apply it twice. Leave the client broken (a later call
			// redials) and surface the failure.
			return nil, err
		}
	}
	return nil, fmt.Errorf("ssdm: giving up after %d attempts: %w", tries, lastErr)
}

// attemptLocked performs one frame round trip on the current
// connection, breaking it on transport failure. Caller holds c.mu.
func (c *Client) attemptLocked(ctx context.Context, req *protocol.Request) (*protocol.Response, error) {
	// Capture the connection this attempt runs on: the cancellation
	// callback below fires without c.mu, so it must poke this conn, not
	// whatever c.conn has been replaced with by a later redial.
	conn := c.conn
	deadline := time.Time{}
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	d, hasDeadline := ctx.Deadline()
	byPeer := hasDeadline && protocol.QueryClass(req.Op)
	if byPeer {
		// Rounded up: 0 would mean "no deadline" to the peer.
		left := max(1, int64((time.Until(d)+time.Millisecond-1)/time.Millisecond))
		if req.TimeoutMS == 0 || left < req.TimeoutMS {
			req.TimeoutMS = left
		}
		d = d.Add(peerGrace)
	}
	if hasDeadline && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, c.breakConn(err)
	}
	// Mid-round-trip cancellation: poke the connection deadline so a
	// blocked read returns promptly instead of waiting out the server.
	pokeDone := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(pokeDone)
		if byPeer && ctx.Err() == context.DeadlineExceeded {
			return // the socket deadline set above already trails by the grace
		}
		_ = conn.SetDeadline(time.Now())
	})
	defer func() {
		if !stop() {
			// The poke is running (or already ran); wait it out so a late
			// SetDeadline cannot clobber the deadline a subsequent round
			// trip installs on this conn.
			<-pokeDone
		}
	}()
	if err := c.wire.Write(req); err != nil {
		return nil, c.breakConn(err)
	}
	var resp protocol.Response
	if err := c.wire.Read(&resp); err != nil {
		return nil, c.breakConn(err)
	}
	return &resp, nil
}

// redial replaces a broken connection with a fresh one. Caller holds
// c.mu.
func (c *Client) redial(ctx context.Context) error {
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", c.addr)
	if err == nil {
		c.conn, c.wire, c.broken = conn, protocol.NewWire(conn, conn), nil
	}
	return err
}

// breakConn records the transport failure and closes the connection so
// in-flight server work cannot write into a stream nobody is aligned
// with anymore. The caller holds c.mu.
func (c *Client) breakConn(err error) error {
	c.broken = err
	c.conn.Close()
	return err
}

// ctxError maps a finished context to the engine's typed errors, so a
// client-side deadline reads the same as a server-side one.
func ctxError(ctx context.Context) error {
	if err := engine.ContextErr(ctx); err != nil {
		return err
	}
	return ctx.Err()
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Ping checks connectivity.
func (c *Client) Ping() error { return c.PingContext(context.Background()) }

// PingContext is Ping under a context. Idempotent.
func (c *Client) PingContext(ctx context.Context) error {
	_, err := c.roundTrip(ctx, &protocol.Request{Op: protocol.OpPing}, true)
	return err
}

// Stats fetches the server statistics snapshot: compiled-query cache
// counters and the default-graph size. Idempotent.
func (c *Client) Stats() (*protocol.Stats, error) {
	resp, err := c.roundTrip(context.Background(), &protocol.Request{Op: protocol.OpStats}, true)
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("ssdmclient: stats response missing payload")
	}
	return resp.Stats, nil
}

// Result is a decoded solution table.
type Result struct {
	Vars []string
	Rows [][]rdf.Term
	Bool bool
}

// Get returns the value of a named column in row i.
func (r *Result) Get(i int, name string) rdf.Term {
	for j, v := range r.Vars {
		if v == name {
			return r.Rows[i][j]
		}
	}
	return nil
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// decodeResult reads a response's row table (protocol.DecodeRows); a
// response without one has no rows.
func decodeResult(resp *protocol.Response) (*Result, error) {
	out := &Result{Vars: resp.Vars, Bool: resp.Bool}
	if resp.Rows != nil {
		rows, err := protocol.DecodeRows(resp.Rows)
		if err != nil {
			return nil, err
		}
		out.Rows = rows
	}
	return out, nil
}

// Query runs a SciSPARQL query on the server.
func (c *Client) Query(q string) (*Result, error) {
	return c.QueryGuarded(context.Background(), q, Guards{})
}

// QueryContext is Query under a context. Queries are read-only, hence
// idempotent: a query cut off by a transport failure is retried on a
// fresh connection with exponential backoff.
func (c *Client) QueryContext(ctx context.Context, q string) (*Result, error) {
	return c.QueryGuarded(ctx, q, Guards{})
}

// QueryGuarded is QueryContext with per-request execution bounds
// enforced server-side.
func (c *Client) QueryGuarded(ctx context.Context, q string, g Guards) (*Result, error) {
	req := &protocol.Request{Op: protocol.OpQuery, Text: q}
	g.apply(req)
	resp, err := c.roundTrip(ctx, req, true)
	if err != nil {
		return nil, err
	}
	return decodeResult(resp)
}

// Scan streams the triples of the server's default graph that match one
// pattern (nil positions are wildcards) through emit; returning false
// from emit stops the replay. It is the wire form of a shard scan (see
// the protocol package doc): the answer's distinct terms are decoded
// once, and the bound positions are filled back in from the pattern. An
// answer of any other width, with an unbound cell, or with more than one
// match of a fully-bound pattern is protocol.ErrMalformed. ctx's deadline
// travels with the request, so a scan that outlives it fails typed
// (engine.ErrQueryTimeout) on a connection that stays usable. Idempotent:
// retried per the reconnect policy, and emit sees nothing until a whole
// answer has arrived.
func (c *Client) Scan(ctx context.Context, s, p, o rdf.Term, emit func(s, p, o rdf.Term) bool) error {
	pattern, err := protocol.EncodeRows([][]rdf.Term{{s, p, o}}, 3)
	if err != nil {
		return err
	}
	defer protocol.Release(pattern)
	resp, err := c.roundTrip(ctx, &protocol.Request{Op: protocol.OpScan, Rows: pattern}, true)
	if err != nil {
		return err
	}
	if resp.Rows == nil {
		return fmt.Errorf("%w: the scan answer holds no row table", protocol.ErrMalformed)
	}
	var open []int // the wildcard positions, the answer's columns
	for i, t := range [3]rdf.Term{s, p, o} {
		if t == nil {
			open = append(open, i)
		}
	}
	var unbound error
	err = protocol.EachRow(resp.Rows, func(nrows, width int) error {
		switch {
		case width != len(open):
			return fmt.Errorf("%w: a scan answer %d cells wide for a pattern with %d wildcards", protocol.ErrMalformed, width, len(open))
		case width == 0 && nrows > 1:
			return fmt.Errorf("%w: %d matches of a fully-bound pattern", protocol.ErrMalformed, nrows)
		}
		return nil
	}, func(row []rdf.Term) bool {
		t := [3]rdf.Term{s, p, o}
		for c, at := range open {
			if t[at] = row[c]; t[at] == nil {
				unbound = fmt.Errorf("%w: an unbound cell in a scan answer", protocol.ErrMalformed)
				return false
			}
		}
		return emit(t[0], t[1], t[2])
	})
	if err == nil {
		err = unbound
	}
	return err
}

// Explain fetches the server's execution strategy for a query (join
// order, filter placement) without running it. Idempotent.
func (c *Client) Explain(q string) (string, error) {
	resp, err := c.roundTrip(context.Background(), &protocol.Request{Op: protocol.OpExplain, Text: q}, true)
	if err != nil {
		return "", err
	}
	return resp.Explain, nil
}

// ExplainAnalyze executes a query server-side while collecting an
// execution trace and returns the decoded result together with the
// trace (per-phase timings, match counts, chunk fetch profile, and the
// annotated plan text in Trace.Plan). Queries are read-only, so the
// request is idempotent and retried per the reconnect policy.
//
// When the query fails under a guard (timeout, bindings budget), the
// error is returned together with the partial trace — the trace shows
// where the time went.
func (c *Client) ExplainAnalyze(ctx context.Context, q string, g Guards) (*Result, *protocol.TraceInfo, error) {
	req := &protocol.Request{Op: protocol.OpExplain, Text: q, Analyze: true}
	g.apply(req)
	resp, err := c.roundTrip(ctx, req, true)
	switch {
	case resp == nil:
		return nil, nil, err
	case err != nil:
		return nil, resp.Trace, err
	}
	res, err := decodeResult(resp)
	return res, resp.Trace, err
}

// Execute runs ';'-separated statements; the last query's result is
// returned (nil when none). Scripts may contain updates, so Execute is
// NOT retried after a mid-call transport failure (the server may have
// run part of the script).
func (c *Client) Execute(text string) (*Result, error) {
	return c.ExecuteGuarded(context.Background(), text, Guards{})
}

// ExecuteGuarded is Execute under a context, with per-request execution
// bounds enforced server-side on every statement in the script —
// queries and the WHERE evaluation of updates alike.
func (c *Client) ExecuteGuarded(ctx context.Context, text string, g Guards) (*Result, error) {
	req := &protocol.Request{Op: protocol.OpExecute, Text: text}
	g.apply(req)
	resp, err := c.roundTrip(ctx, req, false)
	if err != nil {
		return nil, err
	}
	return decodeResult(resp)
}

// Update runs one update statement and reports affected triples.
func (c *Client) Update(text string) (int, error) {
	return c.UpdateContext(context.Background(), text)
}

// UpdateContext is Update under a context. Not idempotent: never
// auto-retried after a send.
func (c *Client) UpdateContext(ctx context.Context, text string) (int, error) {
	return c.UpdateGuarded(ctx, text, Guards{})
}

// UpdateGuarded is UpdateContext with per-request execution bounds
// enforced server-side: the timeout and bindings budget bound the
// statement's WHERE evaluation (MaxRows does not apply to updates).
func (c *Client) UpdateGuarded(ctx context.Context, text string, g Guards) (int, error) {
	req := &protocol.Request{Op: protocol.OpUpdate, Text: text}
	g.apply(req)
	resp, err := c.roundTrip(ctx, req, false)
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// LoadTurtle ships a Turtle document to the server ("" = default
// graph). Not idempotent (documents with blank nodes load fresh nodes
// each time).
func (c *Client) LoadTurtle(doc string, graph rdf.IRI) error {
	_, err := c.roundTrip(context.Background(), &protocol.Request{Op: protocol.OpLoadTurtle, Text: doc, Graph: string(graph)}, false)
	return err
}

// StoreArray uploads an array to the server's storage back-end and
// returns its array ID. Not idempotent: a retry would allocate a second
// array ID.
func (c *Client) StoreArray(a *array.Array) (int64, error) {
	payload, err := array.AppendMarshal(nil, a)
	if err != nil {
		return 0, err
	}
	resp, err := c.roundTrip(context.Background(), &protocol.Request{Op: protocol.OpStoreArray, Array: payload}, false)
	if err != nil {
		return 0, err
	}
	return resp.ArrayID, nil
}

// WriteTriples adds ground triples — rows of subject, predicate and
// object — to the server's default graph (with del, removes them) as one
// transaction, and reports how many changed; a one-row call publishes a
// result array, stored on the server's back-end, with its metadata
// handle. Not idempotent: never auto-retried after a send.
func (c *Client) WriteTriples(ctx context.Context, rows [][]rdf.Term, del bool) (int, error) {
	blob, err := protocol.EncodeRows(rows, 3)
	if err != nil {
		return 0, err
	}
	defer protocol.Release(blob)
	resp, err := c.roundTrip(ctx, &protocol.Request{Op: protocol.OpTriples, Rows: blob, Delete: del}, false)
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}
