package server

import (
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
	"scisparql/internal/ssdmclient"
	"scisparql/internal/storage"
)

// dialWire opens a raw frame connection to a server over db.
func dialWire(t *testing.T, db *core.SSDM) (net.Conn, *protocol.Wire) {
	t.Helper()
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
	t.Cleanup(func() { conn.Close() })
	return conn, protocol.NewWire(conn, conn)
}

// TestFramesRoundTripThroughServer: each payload a request can carry
// travels raw in its frame — an array's marshalled bytes, a triples
// table, a scan pattern — and an answer's table comes back raw in the
// response's.
func TestFramesRoundTripThroughServer(t *testing.T) {
	db := core.Open()
	db.AttachBackend(storage.NewMemory())
	_, w := dialWire(t, db)
	send := func(req protocol.Request) protocol.Response {
		t.Helper()
		var resp protocol.Response
		if err := w.Write(&req); err != nil {
			t.Fatal(err)
		}
		if err := w.Read(&resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("%s: %s", req.Op, resp.Error)
		}
		return resp
	}
	a, err := array.FromFloats([]float64{1.5, -2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := array.AppendMarshal(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if resp := send(protocol.Request{Op: protocol.OpStoreArray, Array: raw}); resp.ArrayID == 0 {
		t.Fatalf("store_array answered %+v, want an array ID", resp)
	}
	s, p := rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p")
	triples := [][]rdf.Term{{s, p, rdf.NewArray(a)}, {s, p, rdf.String{Val: "x"}}}
	table, err := protocol.EncodeRows(triples, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resp := send(protocol.Request{Op: protocol.OpTriples, Rows: table}); resp.Count != 2 {
		t.Fatalf("triples answered %+v, want 2 added", resp)
	}
	resp := send(protocol.Request{Op: protocol.OpQuery, Text: `SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }`})
	rows, err := protocol.DecodeRows(resp.Rows)
	if err != nil || len(rows) != 2 || resp.NRows != 2 {
		t.Fatalf("query answered %d rows (%d announced): %v", len(rows), resp.NRows, err)
	}
	pattern, err := protocol.EncodeRows([][]rdf.Term{{nil, p, rdf.String{Val: "x"}}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	resp = send(protocol.Request{Op: protocol.OpScan, Rows: pattern})
	if rows, err := protocol.DecodeRows(resp.Rows); err != nil || len(rows) != 1 || rows[0][0] != s {
		t.Fatalf("scan answered %v (%v), want the one subject", rows, err)
	}
}

// TestJSONLinesPeerRefused: a peer on the JSON-lines format gets a typed
// failure in a frame and a closed connection, and the triples it sent
// are not applied.
func TestJSONLinesPeerRefused(t *testing.T) {
	db := core.Open()
	conn, w := dialWire(t, db)
	table, err := protocol.EncodeRows([][]rdf.Term{{rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Integer(1)}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	line := `{"op":"triples","rows":"` + base64.StdEncoding.EncodeToString(table) + `"}` + "\n"
	if _, err := conn.Write([]byte(line)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var resp protocol.Response
	if err := w.Read(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != protocol.CodeError || !strings.Contains(resp.Error, protocol.ErrFrame.Error()) {
		t.Fatalf("a JSON line got %+v, want code %q naming %q", resp, protocol.CodeError, protocol.ErrFrame)
	}
	if err := w.Read(&protocol.Response{}); err != io.EOF {
		t.Fatalf("after the refusal: %v, want the connection closed", err)
	}
	if n := db.Dataset.Default.Size(); n != 0 {
		t.Fatalf("the refused triples line applied: %d triples", n)
	}
}

// TestResultTermsOutliveRoundTrips: a Result's terms share the payload
// their answer arrived in, which is the Result's alone: 100 further
// round trips on the same connection leave them as they were.
func TestResultTermsOutliveRoundTrips(t *testing.T) {
	db, cl := startServer(t)
	tx := db.Dataset.Default.Begin()
	for i := range 50 {
		tx.Add(rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.String{Val: fmt.Sprintf("value %d", i), Lang: "en"})
	}
	tx.Commit()
	query := func(i int) *ssdmclient.Result {
		t.Helper()
		res, err := cl.Query(fmt.Sprintf(`SELECT ?s ?v WHERE { ?s <http://ex/p> ?v } LIMIT %d`, 1+i%50))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := query(49)
	var want []string
	for _, row := range first.Rows {
		want = append(want, row[0].String()+" "+row[1].String())
	}
	for i := range 100 {
		query(i)
	}
	for i, row := range first.Rows {
		if got := row[0].String() + " " + row[1].String(); got != want[i] {
			t.Fatalf("row %d reads %q after 100 round trips, was %q", i, got, want[i])
		}
	}
}

// TestGuardConnKeepsNoLargeBuffer: a connection keeps nothing sized by
// the largest message it carried. After one answer of about 1 MiB and
// two collections, the client and the server together retain under
// 64 KiB more than before it. With JSON-lines framing each end kept a
// JSON decoder whose buffer had grown to the largest message.
func TestGuardConnKeepsNoLargeBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not what this measures")
	}
	db, cl := startServer(t)
	tx := db.Dataset.Default.Begin()
	pad := strings.Repeat("x", 1000)
	for i := range 1024 {
		tx.Add(rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.String{Val: fmt.Sprintf("%s %d", pad, i)})
	}
	tx.Commit()
	const q = `SELECT ?s ?v WHERE { ?s <http://ex/p> ?v }`
	if _, err := cl.Explain(q); err != nil { // compile and cache the plan
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	res, err := cl.Query(q)
	if err != nil || res.Len() != 1024 {
		t.Fatalf("%v rows: %v", res, err)
	}
	res = nil
	after := heap()
	retained := int64(after) - int64(before)
	t.Logf("retained %d bytes after a 1 MiB answer", retained)
	if retained >= 64<<10 {
		t.Errorf("the connection pair retains %d bytes after a 1 MiB answer, want under 64 KiB", retained)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}
