package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
	"scisparql/internal/ssdmclient"
)

// crossProduct3 enumerates n^3 bindings — the runaway query of the
// guard tests.
const crossProduct3 = `SELECT * WHERE {
  ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`

// startBigServer serves a dataset with n fuel triples and returns the
// server plus a connected-client factory.
func startBigServer(t *testing.T, n int) (*Server, func() *ssdmclient.Client) {
	t.Helper()
	db := core.Open()
	tx := db.Dataset.Default.Begin()
	for i := 0; i < n; i++ {
		tx.Add(rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.Integer(i))
	}
	tx.Commit()
	srv := New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, func() *ssdmclient.Client {
		cl, err := ssdmclient.Connect(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
}

// TestWireDeadlineOnCrossProduct is the acceptance scenario: a SELECT
// over a 3-way unbounded cross product with a 100ms per-request
// deadline comes back as a timeout in well under 500ms — while
// concurrent well-behaved queries on other connections complete
// normally.
func TestWireDeadlineOnCrossProduct(t *testing.T) {
	_, connect := startBigServer(t, 300)

	// Healthy traffic on four other connections, running throughout.
	var wg sync.WaitGroup
	healthyErr := make(chan error, 4)
	for i := 0; i < 4; i++ {
		cl := connect()
		wg.Add(1)
		go func(cl *ssdmclient.Client) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				res, err := cl.Query(`SELECT * WHERE { ?s <http://ex/p> ?v }`)
				if err != nil {
					healthyErr <- err
					return
				}
				if res.Len() != 300 {
					healthyErr <- fmt.Errorf("healthy query saw %d rows", res.Len())
					return
				}
			}
		}(cl)
	}

	cl := connect()
	start := time.Now()
	_, err := cl.QueryGuarded(context.Background(), crossProduct3,
		ssdmclient.Guards{Timeout: 100 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, engine.ErrQueryTimeout) {
		t.Fatalf("want ErrQueryTimeout over the wire, got %v", err)
	}
	var se *ssdmclient.ServerError
	if !errors.As(err, &se) || se.Code != "timeout" {
		t.Fatalf("want wire code %q, got %+v", "timeout", err)
	}
	if elapsed >= 500*time.Millisecond {
		t.Fatalf("timeout response took %v, want <500ms", elapsed)
	}

	wg.Wait()
	select {
	case err := <-healthyErr:
		t.Fatalf("concurrent healthy query failed: %v", err)
	default:
	}
}

// TestWireResourceLimit: per-request row and bindings caps come back
// with the resource_limit code.
func TestWireResourceLimit(t *testing.T) {
	_, connect := startBigServer(t, 100)
	cl := connect()
	_, err := cl.QueryGuarded(context.Background(),
		`SELECT * WHERE { ?s <http://ex/p> ?v }`, ssdmclient.Guards{MaxRows: 10})
	if !errors.Is(err, engine.ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit, got %v", err)
	}
	_, err = cl.QueryGuarded(context.Background(), crossProduct3,
		ssdmclient.Guards{MaxBindings: 1000})
	if !errors.Is(err, engine.ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit for bindings budget, got %v", err)
	}
}

// TestForeignPanicIsolated is the second acceptance scenario: a panic
// inside a registered foreign function yields an error response with
// the internal code, and the server keeps serving — on the same
// connection and on new ones.
func TestForeignPanicIsolated(t *testing.T) {
	db := core.Open()
	db.Dataset.Default.Add(rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Integer(1))
	db.RegisterForeign("boom", 1, 1, func(args []rdf.Term) (rdf.Term, error) {
		panic("deliberate test panic")
	})
	srv := New(db)
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

	_, err = cl.Query(`SELECT (boom(?v) AS ?b) WHERE { ?s <http://ex/p> ?v }`)
	if !errors.Is(err, engine.ErrInternal) {
		t.Fatalf("want ErrInternal from panicking function, got %v", err)
	}
	// Same connection still serves.
	if err := cl.Ping(); err != nil {
		t.Fatalf("server died after trapped panic: %v", err)
	}
	res, err := cl.Query(`SELECT * WHERE { ?s <http://ex/p> ?v }`)
	if err != nil || res.Len() != 1 {
		t.Fatalf("query after panic: %v", err)
	}
	// And new connections are accepted.
	cl2, err := ssdmclient.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl2.Ping(); err != nil {
		t.Fatalf("new connection after panic: %v", err)
	}
}

// TestUnencodableTermAllOrNothing: a result containing a term with no
// wire representation (a closure) is a pure error response — never OK
// with partial rows.
func TestUnencodableTermAllOrNothing(t *testing.T) {
	_, connect := startBigServer(t, 3)
	cl := connect()
	cl.SetReconnect(0, 0) // a partial response would desync; keep it visible
	_, err := cl.Query(`SELECT (abs(_) AS ?f) WHERE { ?s <http://ex/p> ?v }`)
	if err == nil {
		t.Fatal("want encoding error for closure-valued result")
	}
	if !strings.Contains(err.Error(), "cannot encode") {
		t.Fatalf("want encode failure, got %v", err)
	}
	// The stream stayed aligned (the error was a well-formed response,
	// not a truncated row dump): the connection keeps working.
	res, err := cl.Query(`SELECT * WHERE { ?s <http://ex/p> ?v }`)
	if err != nil || res.Len() != 3 {
		t.Fatalf("connection unusable after encode error: %v", err)
	}
}

// TestEncodeRowsAllOrNothing: one term with no wire form anywhere in a
// result — a closure, whose slices could not even key the table's
// dictionary — fails the whole answer: an error response with no table,
// never an OK one with the rows before it.
func TestEncodeRowsAllOrNothing(t *testing.T) {
	rows := [][]rdf.Term{
		{rdf.Integer(1)},
		{engine.Closure{Fn: "abs", Bound: []rdf.Term{nil}, Holes: []int{0}}},
	}
	resp := encodeResults(&engine.Results{Vars: []string{"x"}, Rows: rows})
	if resp.OK || resp.Code != protocol.CodeError || !strings.Contains(resp.Error, "cannot encode") {
		t.Fatalf("want an encode error response, got %+v", resp)
	}
	if resp.Rows != nil || resp.NRows != 0 {
		t.Fatalf("rows must not be partially committed, got %d in %d bytes", resp.NRows, len(resp.Rows))
	}
	// A row wider than the table is refused the same way.
	wide := [][]rdf.Term{{rdf.Integer(1)}, {rdf.Integer(1), rdf.Integer(2)}}
	for _, rows := range [][][]rdf.Term{rows, wide} {
		if blob, err := protocol.EncodeRows(rows, 1); err == nil || blob != nil {
			t.Fatalf("EncodeRows(%v) = %d bytes, %v; want nothing and an error", rows, len(blob), err)
		}
	}
}

// TestTriplesAllOrNothing: a triples table the server cannot apply
// whole — not three cells wide, an unbound cell, a predicate that is not
// an IRI, truncated — is refused with code "error" and changes nothing,
// though rows it could add or remove come before the bad one; the
// connection then serves a ping.
func TestTriplesAllOrNothing(t *testing.T) {
	s, p := rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p")
	present := []rdf.Term{s, p, rdf.Float(math.NaN())}
	fresh := []rdf.Term{rdf.Blank("b"), p, rdf.Integer(1)}
	db := core.Open()
	db.Dataset.Default.Add(present[0], present[1], present[2])
	srv := New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)
	send := func(req protocol.Request) protocol.Response {
		t.Helper()
		var resp protocol.Response
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	table := func(width int, rows ...[]rdf.Term) []byte {
		t.Helper()
		blob, err := protocol.EncodeRows(rows, width)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	whole := table(3, present, fresh)
	for _, tc := range []struct {
		name string
		rows []byte
	}{
		{"two cells wide", table(2, []rdf.Term{s, p})},
		{"four cells wide", table(4, []rdf.Term{s, p, s, p})},
		{"unbound object", table(3, present, fresh, []rdf.Term{s, p, nil})},
		{"unbound subject", table(3, present, fresh, []rdf.Term{nil, p, s})},
		{"literal predicate", table(3, present, fresh, []rdf.Term{s, rdf.String{Val: "p"}, s})},
		{"blank predicate", table(3, present, fresh, []rdf.Term{s, rdf.Blank("p"), s})},
		{"truncated", whole[:len(whole)-1]},
		{"no table", nil},
	} {
		for _, del := range []bool{false, true} {
			resp := send(protocol.Request{Op: protocol.OpTriples, Rows: tc.rows, Delete: del})
			if resp.OK || resp.Code != protocol.CodeError {
				t.Errorf("%s (delete %v): got %+v, want an error response with code %q", tc.name, del, resp, protocol.CodeError)
			}
			if g := db.Dataset.Default; g.Size() != 1 || !g.Has(present[0], present[1], present[2]) {
				t.Fatalf("%s (delete %v): the store changed to %d triples", tc.name, del, g.Size())
			}
			if resp := send(protocol.Request{Op: protocol.OpPing}); !resp.OK {
				t.Fatalf("%s: ping after the refusal: %+v", tc.name, resp)
			}
		}
	}
	if resp := send(protocol.Request{Op: protocol.OpTriples, Rows: whole}); !resp.OK || resp.Count != 1 {
		t.Fatalf("the whole table: %+v, want 1 triple added", resp)
	}
	if resp := send(protocol.Request{Op: protocol.OpTriples, Rows: whole, Delete: true}); !resp.OK || resp.Count != 2 {
		t.Fatalf("the whole table: %+v, want 2 triples removed", resp)
	}
}

// TestGracefulShutdownDrains: Shutdown cancels an in-flight runaway
// query (its client receives a cancellation error response, not a cut
// stream), refuses new connections, and returns once drained — well
// before the drain deadline.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, connect := startBigServer(t, 300)
	cl := connect()
	cl.SetReconnect(0, 0) // the server is going away; don't redial

	type result struct{ err error }
	got := make(chan result, 1)
	go func() {
		_, err := cl.QueryContext(context.Background(), crossProduct3)
		got <- result{err}
	}()
	time.Sleep(100 * time.Millisecond) // let the query reach the engine

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}

	r := <-got
	if !errors.Is(r.err, engine.ErrQueryCancelled) {
		t.Fatalf("in-flight query should see cancellation, got %v", r.err)
	}
}

// startGuardedServer is startBigServer with explicit instance options,
// for tests pinning the server-side guard configuration.
func startGuardedServer(t *testing.T, opts core.Options, n int) func() *ssdmclient.Client {
	t.Helper()
	db := core.OpenWith(opts)
	for i := 0; i < n; i++ {
		db.Dataset.Default.Add(rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.Integer(i))
	}
	srv := New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return func() *ssdmclient.Client {
		cl, err := ssdmclient.Connect(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
}

// TestWireGuardsCannotLoosenDefaults: a remote client sending guard
// fields larger than the operator-configured limits must not bypass
// them — the per-request fields can only tighten the server's DoS
// guards.
func TestWireGuardsCannotLoosenDefaults(t *testing.T) {
	connect := startGuardedServer(t,
		core.Options{QueryTimeout: 100 * time.Millisecond, MaxBindings: 10_000}, 300)
	cl := connect()
	start := time.Now()
	_, err := cl.QueryGuarded(context.Background(), crossProduct3,
		ssdmclient.Guards{Timeout: time.Hour, MaxBindings: 1 << 60})
	if !errors.Is(err, engine.ErrQueryTimeout) && !errors.Is(err, engine.ErrResourceLimit) {
		t.Fatalf("want a guard violation despite loose request guards, got %v", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("request guards loosened the server deadline: ran %v", elapsed)
	}

	rowConnect := startGuardedServer(t, core.Options{MaxResultRows: 5}, 50)
	rcl := rowConnect()
	_, err = rcl.QueryGuarded(context.Background(),
		`SELECT * WHERE { ?s <http://ex/p> ?v }`, ssdmclient.Guards{MaxRows: 1000})
	if !errors.Is(err, engine.ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit under the server row cap, got %v", err)
	}
}

// TestWireGuardsOnExecuteAndUpdate: the per-request guard fields bound
// execute and update ops, not just query — a script or DELETE/INSERT
// with a runaway WHERE comes back with the matching wire code.
func TestWireGuardsOnExecuteAndUpdate(t *testing.T) {
	connect := startGuardedServer(t, core.Options{}, 300)
	cl := connect()

	start := time.Now()
	_, err := cl.ExecuteGuarded(context.Background(), crossProduct3,
		ssdmclient.Guards{Timeout: 100 * time.Millisecond})
	var se *ssdmclient.ServerError
	if !errors.As(err, &se) || se.Code != "timeout" {
		t.Fatalf("want wire code %q on execute, got %v", "timeout", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("execute deadline overshoot: %v", elapsed)
	}

	const runawayUpdate = `INSERT { ?a <http://ex/q> ?y } WHERE {
	  ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`
	_, err = cl.UpdateGuarded(context.Background(), runawayUpdate,
		ssdmclient.Guards{MaxBindings: 1000})
	if !errors.As(err, &se) || se.Code != "resource_limit" {
		t.Fatalf("want wire code %q on update, got %v", "resource_limit", err)
	}

	// Update inside an execute script is bounded too.
	_, err = cl.ExecuteGuarded(context.Background(), runawayUpdate,
		ssdmclient.Guards{MaxBindings: 1000})
	if !errors.Is(err, engine.ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit on script update, got %v", err)
	}

	// The connection stays healthy for well-behaved traffic afterwards.
	if _, err := cl.Update(`INSERT DATA { <http://ex/a> <http://ex/p> 1 }`); err != nil {
		t.Fatalf("client should stay usable after guard violations: %v", err)
	}
}

// TestDeadlineReachesPeer: the caller's deadline travels with a scan
// and with a query alike. The server stops at it and answers a typed
// timeout on an aligned stream, so the very connection the request ran
// on serves the next one — the client neither cuts the socket under a
// peer that keeps working nor redials.
func TestDeadlineReachesPeer(t *testing.T) {
	srv, connect := startBigServer(t, 60_000)
	cl := connect()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	conns := func() (out []net.Conn) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for c := range srv.conns {
			out = append(out, c)
		}
		return out
	}
	before := conns()

	rows := 0
	scan := func(ctx context.Context) error {
		return cl.Scan(ctx, nil, rdf.IRI("http://ex/p"), nil, func(s, p, o rdf.Term) bool { rows++; return true })
	}
	cross := func(ctx context.Context) error {
		_, err := cl.QueryContext(ctx, "SELECT * WHERE { ?a <http://ex/p> ?x . ?b <http://ex/p> ?y }")
		return err
	}
	for name, call := range map[string]func(context.Context) error{"scan": scan, "query": cross} {
		var se *ssdmclient.ServerError
		// A deadline this short can pass before the request is even sent,
		// which fails typed too but proves nothing about the peer: try
		// until the timeout is the server's.
		for try := 0; se == nil; try++ {
			if try == 20 {
				t.Fatalf("%s: no request reached the server before its 1 ms deadline", name)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			start := time.Now()
			err := call(ctx)
			cancel()
			if !errors.Is(err, engine.ErrQueryTimeout) || rows != 0 {
				t.Fatalf("%s under a 1 ms deadline = %v after %d rows, want ErrQueryTimeout and none", name, err, rows)
			}
			if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
				t.Fatalf("%s: the peer kept working: the timeout took %v", name, elapsed)
			}
			errors.As(err, &se)
		}
		if se.Code != protocol.CodeTimeout {
			t.Fatalf("%s: server-reported code %q, want %q", name, se.Code, protocol.CodeTimeout)
		}
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping after the timed-out %s: %v", name, err)
		}
		if after := conns(); len(after) != 1 || len(before) != 1 || after[0] != before[0] {
			t.Fatalf("the client redialed after the %s: connections before %v, after %v", name, before, after)
		}
	}
	// With time to spare the same scan completes.
	if err := scan(context.Background()); err != nil || rows != 60_000 {
		t.Fatalf("unhurried scan: %d rows, %v", rows, err)
	}
}

// TestScanGuards: a scan obeys the instance's row cap with an error,
// never a truncated batch, and a malformed pattern is refused.
func TestScanGuards(t *testing.T) {
	connect := startGuardedServer(t, core.Options{MaxResultRows: 5}, 50)
	cl := connect()
	rows := 0
	count := func(s, p, o rdf.Term) bool { rows++; return true }
	err := cl.Scan(context.Background(), nil, rdf.IRI("http://ex/p"), nil, count)
	if !errors.Is(err, engine.ErrResourceLimit) || rows != 0 {
		t.Fatalf("scan over the row cap = %v after %d rows, want ErrResourceLimit and none", err, rows)
	}
	if err := cl.Scan(context.Background(), rdf.IRI("http://ex/s3"), nil, nil, count); err != nil || rows != 1 {
		t.Fatalf("scan under the row cap: %d rows, %v", rows, err)
	}

	srv := New(core.Open())
	p := rdf.IRI("http://ex/p")
	table := func(rows [][]rdf.Term, width int) []byte {
		blob, err := protocol.EncodeRows(rows, width)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	good := table([][]rdf.Term{{nil, p, nil}}, 3)
	for name, pattern := range map[string][]byte{
		"missing":   nil,
		"truncated": good[:len(good)-1],
		"no rows":   table(nil, 3),
		"two rows":  table([][]rdf.Term{{nil, p, nil}, {nil, p, nil}}, 3),
		"width 2":   table([][]rdf.Term{{nil, p}}, 2),
		"width 4":   table([][]rdf.Term{{nil, p, nil, nil}}, 4),
	} {
		resp := srv.handle(&protocol.Request{Op: protocol.OpScan, Rows: pattern})
		if resp.OK || resp.Code != protocol.CodeError {
			t.Errorf("scan with a %s pattern = %+v, want an error", name, resp)
		}
	}
	if resp := srv.handle(&protocol.Request{Op: protocol.OpScan, Rows: good}); !resp.OK {
		t.Errorf("scan with a good pattern = %+v", resp)
	}
}
