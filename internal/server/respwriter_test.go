package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"scisparql/internal/protocol"
)

// TestRespWriterMatchesEncodingJSON: a response written with its tables
// encoded chunk by chunk decodes to what encoding/json makes of the
// whole response, for tables of every length modulo 3, longer than the
// writer's buffer and than a chunk, and the line ends where
// encoding/json's does.
func TestRespWriterMatchesEncodingJSON(t *testing.T) {
	table := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + n)
		}
		return b
	}
	resps := []protocol.Response{
		{OK: true},
		{OK: false, Error: "bad <request>: \"x\"", Code: protocol.CodeError},
		{OK: true, Vars: []string{"s", "o"}, Rows: table(1), NRows: 1},
		{OK: true, Vars: []string{"s"}, Rows: table(2), NRows: 2, Explain: "plan"},
		{OK: true, Count: 3, Rows: table(3)},
		{OK: true, Rows: table(4999), NRows: 9, Stats: &protocol.Stats{Triples: 4}},
		{OK: true, Rows: table(5000)},
		{OK: true, Rows: table(2*wireChunk + 1), NRows: 3},
		{OK: true, Rows: table(wireChunk)},
	}
	for i, resp := range resps {
		var got bytes.Buffer
		w := &respWriter{bw: bufio.NewWriterSize(&got, 16)}
		w.enc = json.NewEncoder(&w.head)
		if err := w.write(&resp); err != nil {
			t.Fatal(err)
		}
		if err := w.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.IndexByte(got.Bytes(), '\n'); n != got.Len()-1 {
			t.Errorf("response %d: newline at %d of %d bytes, want one, at the end", i, n, got.Len())
		}
		var gotV, wantV map[string]any
		if err := json.Unmarshal(got.Bytes(), &gotV); err != nil {
			t.Fatalf("response %d: %v in %s", i, err, got.Bytes())
		}
		if err := json.Unmarshal(want, &wantV); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotV, wantV) {
			t.Errorf("response %d decodes to %v, want %v", i, gotV, wantV)
		}
	}
}
