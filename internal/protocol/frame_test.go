package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// header returns a frame header announcing an envelope of env bytes and
// a payload of n.
func header(env, n uint32) []byte {
	h := []byte{frameVersion}
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(h, env), n)
}

// payloadOf returns n bytes that are not all alike.
func payloadOf(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + n)
	}
	return b
}

// TestWireRoundTrip: every message Write sends, Read gives back — the
// envelope's fields and the payload in the field its op names — for
// payloads on both sides of the kept envelope buffer and of a read step,
// one after another on one stream.
func TestWireRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	w := NewWire(&stream, &stream)
	reqs := []Request{
		{Op: OpPing},
		{Op: OpQuery, Text: "SELECT * WHERE { ?s ?p ?o }", TimeoutMS: 7, MaxRows: 3},
		{Op: OpTriples, Rows: payloadOf(12), Delete: true},
		{Op: OpStoreArray, Array: payloadOf(maxKeptEnvelope)},
		{Op: OpScan, Rows: payloadOf(frameStep + 1)},
		{Op: OpLoadTurtle, Text: strings.Repeat("<s> <p> <o> .\n", 3000), Graph: "http://g"},
	}
	resps := []Response{
		{OK: true},
		{OK: false, Error: "bad <request>: \"x\"", Code: CodeError},
		{OK: true, Vars: []string{"s", "o"}, Rows: payloadOf(1), NRows: 1},
		{OK: true, Rows: payloadOf(maxKeptEnvelope - 40), NRows: 9, Stats: &Stats{Triples: 4}},
		{OK: true, Rows: payloadOf(2*frameStep + 3), NRows: 3, Trace: &TraceInfo{Plan: "p"}},
	}
	for i := range reqs {
		if err := w.Write(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range resps {
		if err := w.Write(&resps[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range reqs {
		var got Request
		if err := w.Read(&got); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request %d: read %+v, want %+v", i, got, want)
		}
		if w.dec != nil && len(got.Text) > maxKeptEnvelope {
			t.Errorf("request %d: the wire kept the decoder of a %d-byte envelope", i, len(got.Text))
		}
	}
	for i, want := range resps {
		var got Response
		if err := w.Read(&got); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response %d: read %+v, want %+v", i, got, want)
		}
	}
	if err := w.Read(&Response{}); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want io.EOF", err)
	}
	if w.out.Cap() > maxKeptEnvelope {
		t.Fatalf("the wire kept %d envelope bytes, want at most %d", w.out.Cap(), maxKeptEnvelope)
	}
}

// TestReadFrameHostileLengths: a header over the cap fails typed before
// anything behind it is read; one that announces 200 MiB with 10 bytes
// behind it fails short and allocates under 2 MiB, in the envelope (10
// bytes of a JSON value) and in the payload alike; a frame cut inside its header or its payload is
// io.ErrUnexpectedEOF.
func TestReadFrameHostileLengths(t *testing.T) {
	read := func(b []byte) error { return NewWire(bytes.NewReader(b), io.Discard).Read(&Request{}) }
	for _, h := range [][]byte{header(maxFrame+1, 0), header(0, maxFrame+1), header(maxFrame, 1), header(1<<31, 1<<31)} {
		if err := read(h); !errors.Is(err, ErrFrame) {
			t.Errorf("header %x: %v, want ErrFrame", h, err)
		}
	}
	env := []byte(`{"op":"triples"}`)
	for _, frame := range [][]byte{
		append(header(200<<20, 0), `{"op":"pin`...),
		append(append(header(uint32(len(env)), 200<<20), env...), make([]byte, 10)...),
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := read(frame)
		runtime.ReadMemStats(&m1)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("200 MiB announced, 10 bytes sent: %v, want io.ErrUnexpectedEOF", err)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= 2<<20 {
			t.Errorf("200 MiB announced, 10 bytes sent: allocated %d bytes, want under 2 MiB", got)
		}
	}
	whole := append(append(header(uint32(len(env)), 3), env...), 1, 2, 3)
	for _, cut := range []int{1, frameHeader - 1, frameHeader + 1, len(whole) - 1} {
		if err := read(whole[:cut]); err != io.ErrUnexpectedEOF {
			t.Errorf("a frame cut at %d of %d bytes: %v, want io.ErrUnexpectedEOF", cut, len(whole), err)
		}
	}
	if err := read(whole); err != nil {
		t.Fatal(err)
	}
}

// TestReadFrameRefusesJSONLines: a JSON-lines message, the format before
// frames, is ErrFrame at its first byte, as is a frame whose envelope is
// not exactly one JSON value.
func TestReadFrameRefusesJSONLines(t *testing.T) {
	for _, b := range [][]byte{
		[]byte(`{"op":"triples","rows":"AAAAAAAAAAADAAAA"}` + "\n"),
		append(header(4, 0), "nope"...),
		header(0, 0),
		append(header(3, 0), "   "...),
		append(header(14, 0), `{"op":"ping"}x`...),
		append(header(15, 0), `{"op":"ping"}{}`...),
		append(header(15, 0), `{"op":["ping"]}`...),
	} {
		if err := NewWire(bytes.NewReader(b), io.Discard).Read(&Request{}); !errors.Is(err, ErrFrame) {
			t.Errorf("%q: %v, want ErrFrame", b, err)
		}
	}
}

// FuzzReadFrame: Read never panics, allocates at most the bytes it was
// given plus one read step (and what decoding the envelope's JSON
// takes), and a frame Write made of what it read reads back to the same
// frame.
func FuzzReadFrame(f *testing.F) {
	for _, m := range []message{
		&Request{Op: OpScan, Rows: payloadOf(20), TimeoutMS: 5},
		&Request{Op: OpStoreArray, Array: payloadOf(3)},
		&Response{OK: true, Vars: []string{"s"}, Rows: payloadOf(30), NRows: 2},
		&Response{Code: CodeTimeout, Error: "late"},
	} {
		var b bytes.Buffer
		if err := NewWire(nil, &b).Write(m); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte(`{"ok":true}` + "\n"))
	f.Add(header(200<<20, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() message{
			func() message { return new(Request) },
			func() message { return new(Response) },
		} {
			m := fresh()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := NewWire(bytes.NewReader(data), io.Discard).Read(m)
			runtime.ReadMemStats(&m1)
			if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(frameStep+16*len(data)+64<<10); got > limit {
				t.Fatalf("read of %d bytes allocated %d, want at most %d", len(data), got, limit)
			}
			if err != nil {
				continue
			}
			// What the writer wrote reads back to a message it writes alike.
			var out, again bytes.Buffer
			if err := NewWire(nil, &out).Write(m); err != nil {
				t.Fatal(err)
			}
			reread := fresh()
			if err := NewWire(bytes.NewReader(out.Bytes()), io.Discard).Read(reread); err != nil {
				t.Fatalf("rereading %x: %v", out.Bytes(), err)
			}
			if err := NewWire(nil, &again).Write(reread); err != nil || !bytes.Equal(again.Bytes(), out.Bytes()) {
				t.Fatalf("rewrote %x as %x (%v)", out.Bytes(), again.Bytes(), err)
			}
		}
	})
}
