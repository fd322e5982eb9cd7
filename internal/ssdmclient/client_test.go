package ssdmclient

import (
	"bufio"
	"context"
	"errors"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scisparql/internal/engine"
	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
)

// garbageServer accepts connections and answers every request with
// bytes that are not a frame, desynchronizing the stream.
func garbageServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				w := protocol.NewWire(conn, conn)
				for {
					var req protocol.Request
					if err := w.Read(&req); err != nil {
						return
					}
					if _, err := conn.Write([]byte("!!not a frame!!\n")); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestBrokenStreamFailsFast: with reconnection disabled, a decode
// failure permanently breaks the client — the stream cannot be
// trusted, so further round trips are refused with an error naming the
// original cause instead of pairing responses with the wrong requests.
func TestBrokenStreamFailsFast(t *testing.T) {
	addr := garbageServer(t)
	cl, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetReconnect(0, 0)
	if err := cl.Ping(); err == nil {
		t.Fatal("expected decode error from garbage response")
	}
	err = cl.Ping()
	if err == nil {
		t.Fatal("expected fail-fast error on broken client")
	}
	if !strings.Contains(err.Error(), "connection broken") {
		t.Fatalf("want fail-fast error, got %v", err)
	}
}

// TestJSONLinesServerFailsTyped: a server on the JSON-lines format, the
// one before frames, answers a ping with a line the client refuses as
// protocol.ErrFrame, whatever the line says.
func TestJSONLinesServerFailsTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		r.Peek(1) // a request has arrived
		conn.Write([]byte(`{"ok":true}` + "\n"))
		r.ReadByte()
	}()
	cl, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetReconnect(0, 0)
	if err := cl.Ping(); !errors.Is(err, protocol.ErrFrame) {
		t.Fatalf("ping of a JSON-lines server: %v, want protocol.ErrFrame", err)
	}
}

// TestReconnectHealsBrokenStream: with the default policy a broken
// client redials. The flaky server poisons its first connection with
// garbage but serves later connections correctly, so the same Ping
// call that hits the poison recovers within its retry budget.
func TestReconnectHealsBrokenStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			poisoned := conns.Add(1) == 1
			go func(conn net.Conn, poisoned bool) {
				defer conn.Close()
				w := protocol.NewWire(conn, conn)
				for {
					var req protocol.Request
					if err := w.Read(&req); err != nil {
						return
					}
					if poisoned {
						conn.Write([]byte("!!not a frame!!\n"))
						return
					}
					w.Write(&protocol.Response{OK: true})
				}
			}(conn, poisoned)
		}
	}()
	cl, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping should heal through reconnect, got %v", err)
	}
	if got := conns.Load(); got < 2 {
		t.Fatalf("expected a redial, saw %d connections", got)
	}
}

// TestNonIdempotentNotRetried: an update cut off mid-round-trip must
// not be re-sent — the server may have applied it. The next call is
// free to redial (nothing has been sent on the fresh connection).
func TestNonIdempotentNotRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var updates atomic.Int64
	var conns atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			poisoned := conns.Add(1) == 1
			go func(conn net.Conn, poisoned bool) {
				defer conn.Close()
				w := protocol.NewWire(conn, conn)
				for {
					var req protocol.Request
					if err := w.Read(&req); err != nil {
						return
					}
					if req.Op == protocol.OpUpdate {
						updates.Add(1)
					}
					if poisoned {
						conn.Write([]byte("!!not a frame!!\n"))
						return
					}
					w.Write(&protocol.Response{OK: true})
				}
			}(conn, poisoned)
		}
	}()
	cl, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Update("DELETE DATA { <s> <p> <o> }"); err == nil {
		t.Fatal("expected transport error from poisoned connection")
	}
	if got := updates.Load(); got != 1 {
		t.Fatalf("update must be sent exactly once, server saw %d", got)
	}
	// The client heals on the next call via a fresh connection.
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after broken update should redial, got %v", err)
	}
}

// TestServerErrorDoesNotBreakClient: a server-reported error is a
// well-formed response; the stream stays aligned and usable, and no
// reconnect or retry is triggered.
func TestServerErrorDoesNotBreakClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		w := protocol.NewWire(conn, conn)
		first := true
		for {
			var req protocol.Request
			if err := w.Read(&req); err != nil {
				return
			}
			if first {
				first = false
				w.Write(&protocol.Response{OK: false, Error: "synthetic failure"})
				continue
			}
			w.Write(&protocol.Response{OK: true})
		}
	}()
	cl, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("want server error, got %v", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("client should survive a server-reported error: %v", err)
	}
}

// TestWireCodeMapsToTypedError: error codes on the wire classify with
// errors.Is against the engine's sentinel errors.
func TestWireCodeMapsToTypedError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	codes := []string{protocol.CodeTimeout, protocol.CodeResourceLimit, protocol.CodeInternal}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		w := protocol.NewWire(conn, conn)
		for _, code := range codes {
			var req protocol.Request
			if err := w.Read(&req); err != nil {
				return
			}
			w.Write(&protocol.Response{OK: false, Error: "synthetic " + code, Code: code})
		}
	}()
	cl, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, want := range []error{engine.ErrQueryTimeout, engine.ErrResourceLimit, engine.ErrInternal} {
		_, err := cl.Query("SELECT * WHERE { ?s ?p ?o }")
		if !errors.Is(err, want) {
			t.Fatalf("want errors.Is(err, %v), got %v", want, err)
		}
	}
}

// TestTimeoutBreaksClient: with reconnection disabled, a server that
// never answers trips the configured deadline and the timed-out client
// stays broken (the response may still arrive later, into a stream
// nobody is aligned with).
func TestTimeoutBreaksClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-hold // never respond
	}()
	cl, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetReconnect(0, 0)
	cl.SetTimeout(50 * time.Millisecond)
	start := time.Now()
	if err := cl.Ping(); err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline not applied")
	}
	if err := cl.Ping(); err == nil || !strings.Contains(err.Error(), "connection broken") {
		t.Fatalf("want fail-fast after timeout, got %v", err)
	}
}

// TestContextCancelMidCall: cancelling the call context while the
// server sits on the request unblocks the client promptly and reports
// the typed cancellation error, not a raw i/o error.
func TestContextCancelMidCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			<-hold // never respond
		}
	}()
	cl, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.QueryContext(ctx, "SELECT * WHERE { ?s ?p ?o }")
	if !errors.Is(err, engine.ErrQueryTimeout) {
		t.Fatalf("want ErrQueryTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took too long: %v", elapsed)
	}
}

// TestLatePokeDoesNotClobberNextRoundTrip: the cancellation poke of a
// finished round trip must neither race with a redial replacing the
// connection nor expire the deadline a subsequent round trip installs.
// The server answers after a short delay and the call deadlines
// straddle it, so pokes land in every phase: before the response,
// racing it, and after. The straddling call is a Ping: no peer enforces
// its deadline, so expiry pokes the socket. Retries are disabled — a single spurious
// transport failure on the follow-up Ping fails the test. Run with
// -race to also catch the unsynchronized conn access itself.
func TestLatePokeDoesNotClobberNextRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				w := protocol.NewWire(conn, conn)
				for {
					var req protocol.Request
					if err := w.Read(&req); err != nil {
						return
					}
					time.Sleep(time.Millisecond)
					if w.Write(&protocol.Response{OK: true}) != nil {
						return
					}
				}
			}(conn)
		}
	}()
	cl, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetReconnect(1, 0) // redial broken conns, never retry mid-call
	for i := 0; i < 100; i++ {
		d := time.Duration(200+i*137%2000) * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), d)
		_ = cl.PingContext(ctx) // may time out
		cancel()
		if err := cl.Ping(); err != nil {
			t.Fatalf("iteration %d: ping after cancelled call failed: %v", i, err)
		}
	}
}

// TestScanOnTheWire scripts a peer through the three answers a scan can
// get: a batch, a server that predates the op, and silence. The request
// carries the pattern as a one-row table and what is left of the caller's
// deadline; an "unknown op" is a server-reported error that is neither
// retried nor breaks the stream; a silent peer costs the deadline plus
// the grace the client gives its typed reply, then fails typed.
func TestScanOnTheWire(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	subj := rdf.IRI("http://ex/s")
	blob, err := protocol.EncodeRows([][]rdf.Term{{subj, rdf.Integer(-7)}, {subj, subj}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make(chan protocol.Request, 8)
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		w := protocol.NewWire(conn, conn)
		for i := 0; ; i++ {
			var req protocol.Request
			if err := w.Read(&req); err != nil {
				return
			}
			reqs <- req
			switch i {
			case 0:
				w.Write(&protocol.Response{OK: true, Rows: blob, NRows: 2})
			case 1:
				w.Write(&protocol.Response{OK: false, Error: "unknown op scan", Code: protocol.CodeError})
			case 2:
				w.Write(&protocol.Response{OK: true})
			default:
				<-hold
			}
		}
	}()
	cl, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var got []string
	collect := func(s, p, o rdf.Term) bool {
		got = append(got, s.Key()+" "+p.Key()+" "+o.Key())
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pred := rdf.IRI("http://ex/p")
	if err := cl.Scan(ctx, nil, pred, nil, collect); err != nil {
		t.Fatal(err)
	}
	if want := []string{"<http://ex/s> <http://ex/p> i:-7", "<http://ex/s> <http://ex/p> <http://ex/s>"}; !slices.Equal(got, want) {
		t.Fatalf("scan replayed %q, want %q", got, want)
	}
	req := <-reqs
	pattern, err := protocol.DecodeRows(req.Rows)
	if err != nil || req.Op != protocol.OpScan || req.Text != "" || len(pattern) != 1 ||
		!slices.Equal(pattern[0], []rdf.Term{nil, pred, nil}) {
		t.Fatalf("scan request %+v carries the pattern %v (%v)", req, pattern, err)
	}
	if req.TimeoutMS <= 59_000 || req.TimeoutMS > 60_000 {
		t.Fatalf("timeout_ms %d, want what is left of the one-minute deadline", req.TimeoutMS)
	}

	err = cl.Scan(context.Background(), nil, pred, nil, collect)
	var se *ServerError
	if !errors.As(err, &se) || se.Msg != "unknown op scan" {
		t.Fatalf("scan of a peer without the op = %v, want its server error", err)
	}
	if req := <-reqs; req.TimeoutMS != 0 {
		t.Fatalf("timeout_ms %d without a deadline", req.TimeoutMS)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after a refused scan: %v", err)
	}
	if <-reqs; len(reqs) != 0 {
		t.Fatalf("the refused scan was retried: %d extra requests", len(reqs))
	}

	cl.SetReconnect(1, 0)
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = cl.Scan(ctx, nil, pred, nil, collect)
	if !errors.Is(err, engine.ErrQueryTimeout) {
		t.Fatalf("scan of a silent peer = %v, want ErrQueryTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < peerGrace || elapsed > peerGrace+2*time.Second {
		t.Fatalf("silent peer cost %v, want the deadline plus the %v grace", elapsed, peerGrace)
	}
	if req := <-reqs; req.TimeoutMS < 1 || req.TimeoutMS > 20 {
		t.Fatalf("timeout_ms %d under a 20 ms deadline", req.TimeoutMS)
	}
}

// TestScanAnswerShape: Scan fills the bound positions back in from its
// pattern, and an answer that is not a table of the pattern's wildcards
// — no table at all, another width, two matches of a ground
// pattern, an unbound cell, bytes that do not decode — fails as
// protocol.ErrMalformed, not a panic, on a connection that stays usable.
func TestScanAnswerShape(t *testing.T) {
	s, p, o := rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Integer(7)
	table := func(rows [][]rdf.Term, width int) []byte {
		blob, err := protocol.EncodeRows(rows, width)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	ground := table([][]rdf.Term{{}}, 0)
	answers := []protocol.Response{
		{OK: true, Rows: ground, NRows: 1},
		{OK: true, Count: 1},
		{OK: true, Rows: table([][]rdf.Term{{s}}, 1), NRows: 1},
		{OK: true, Rows: table([][]rdf.Term{{}, {}}, 0), NRows: 2},
		{OK: true, Rows: table([][]rdf.Term{{s, nil}}, 2), NRows: 1},
		{OK: true, Rows: ground[:len(ground)-1], NRows: 1},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		w := protocol.NewWire(conn, conn)
		for _, answer := range answers {
			if err := w.Read(&protocol.Request{}); err != nil {
				return
			}
			w.Write(&answer)
		}
	}()
	cl, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var got []rdf.Term
	collect := func(gs, gp, gobj rdf.Term) bool {
		got = append(got, gs, gp, gobj)
		return true
	}
	if err := cl.Scan(context.Background(), s, p, o, collect); err != nil || !slices.Equal(got, []rdf.Term{s, p, o}) {
		t.Fatalf("ground scan replayed %v, %v; want the pattern itself", got, err)
	}
	for i, pattern := range [][3]rdf.Term{{s, p, o}, {s, p, o}, {s, p, o}, {nil, p, nil}, {s, p, o}} {
		got = nil
		err := cl.Scan(context.Background(), pattern[0], pattern[1], pattern[2], collect)
		if !errors.Is(err, protocol.ErrMalformed) {
			t.Errorf("answer %d = %v, want protocol.ErrMalformed", i+1, err)
		}
	}
}

// TestDeadlineTravelsWithPeerTimedOps: one policy for every op the
// server bounds by timeout_ms — the request carries what is left of the
// caller's deadline unless its own guard is tighter — and none for the
// ops it runs to completion.
func TestDeadlineTravelsWithPeerTimedOps(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	reqs := make(chan protocol.Request, 8)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		w := protocol.NewWire(conn, conn)
		for {
			var req protocol.Request
			if w.Read(&req) != nil {
				return
			}
			reqs <- req
			w.Write(&protocol.Response{OK: true})
		}
	}()
	cl, err := Connect(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const q = "SELECT * WHERE { ?s ?p ?o }"
	for _, tc := range []struct {
		name     string
		call     func() error
		min, max int64 // bounds on the timeout_ms sent
	}{
		{"query", func() error { _, err := cl.QueryContext(ctx, q); return err }, 59_001, 60_000},
		{"looser guard", func() error { _, err := cl.QueryGuarded(ctx, q, Guards{Timeout: time.Hour}); return err }, 59_001, 60_000},
		{"tighter guard", func() error { _, err := cl.QueryGuarded(ctx, q, Guards{Timeout: 5 * time.Second}); return err }, 5_000, 5_000},
		{"update", func() error { _, err := cl.UpdateContext(ctx, "DELETE WHERE { ?s ?p ?o }"); return err }, 59_001, 60_000},
		{"execute", func() error { _, err := cl.ExecuteGuarded(ctx, q, Guards{}); return err }, 59_001, 60_000},
		{"no deadline", func() error { _, err := cl.Query(q); return err }, 0, 0},
		{"ping", func() error { return cl.PingContext(ctx) }, 0, 0},
	} {
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if req := <-reqs; req.TimeoutMS < tc.min || req.TimeoutMS > tc.max {
			t.Errorf("%s: timeout_ms %d, want %d..%d", tc.name, req.TimeoutMS, tc.min, tc.max)
		}
	}
}
