package filestore

import (
	"context"
	"os"
	"testing"
	"testing/quick"

	"scisparql/internal/array"
	"scisparql/internal/spd"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func seqArray(t *testing.T, shape ...int) *array.Array {
	t.Helper()
	n := array.Prod(shape)
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i) * 1.5
	}
	a, err := array.FromFloats(data, shape...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestStoreOpenRoundTrip(t *testing.T) {
	s := newStore(t)
	a := seqArray(t, 20, 30)
	id, err := s.Store(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if !array.ShapeEqual(back.Shape, []int{20, 30}) {
		t.Fatalf("shape %v", back.Shape)
	}
	eq, err := array.Equal(a, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("round trip mismatch")
	}
}

func TestOpenMissing(t *testing.T) {
	s := newStore(t)
	if _, err := s.Open(99); err == nil {
		t.Fatal("expected error")
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t)
	id, err := s.Store(seqArray(t, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(id); err == nil {
		t.Fatal("deleted array should be gone")
	}
	if err := s.Delete(id); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestContiguousRunsReadOnce(t *testing.T) {
	s := newStore(t)
	id, err := s.Store(seqArray(t, 1000), 10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Deref([]array.Range{array.Span(0, 500)})
	if err != nil {
		t.Fatal(err)
	}
	s.ReadCalls = 0
	if _, err := v.Materialize(); err != nil {
		t.Fatal(err)
	}
	if s.ReadCalls != 1 {
		t.Fatalf("read calls %d, want 1 (sequential run)", s.ReadCalls)
	}
}

func TestStridedRunsReadPerChunk(t *testing.T) {
	s := newStore(t)
	id, err := s.Store(seqArray(t, 1000), 10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	// Touch every 5th chunk.
	v, err := a.Deref([]array.Range{array.SpanStep(0, 1000, 50)})
	if err != nil {
		t.Fatal(err)
	}
	s.ReadCalls = 0
	got, err := v.Sum()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < 1000; i += 50 {
		want += float64(i) * 1.5
	}
	if got.Float() != want {
		t.Fatalf("sum %v, want %v", got, want)
	}
	if s.ReadCalls != 20 {
		t.Fatalf("read calls %d, want 20", s.ReadCalls)
	}
}

func TestAggregateNotCapable(t *testing.T) {
	s := newStore(t)
	if _, ok, err := s.AggregateWhole(1); ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestShortFinalChunk(t *testing.T) {
	s := newStore(t)
	a := seqArray(t, 95)
	id, err := s.Store(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	v, err := back.At(94)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 94*1.5 {
		t.Fatalf("got %v", v)
	}
	// The short chunk is a full-size frame sliced to its length.
	got, err := readChunks(s, id, []spd.Run{{Start: 9, Stride: 1, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d := got[9]; len(d) != 5*array.ElemSize || cap(d) != 10*array.ElemSize {
		t.Fatalf("short chunk len %d cap %d, want %d and %d", len(d), cap(d), 5*array.ElemSize, 10*array.ElemSize)
	}
}

// TestHeaderKeptUntilClose: an array's header is read when the array is
// first opened and kept, since arrays are write-once, until Close or
// Delete drops it.
func TestHeaderKeptUntilClose(t *testing.T) {
	s := newStore(t)
	id, err := s.Store(seqArray(t, 95), 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(id); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(s.path(id), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 4), 0); err != nil { // spoil the magic
		t.Fatal(err)
	}
	f.Close()
	run := []spd.Run{{Start: 0, Stride: 1, Count: 10}}
	if _, err := readChunks(s, id, run); err != nil {
		t.Fatalf("read with the kept header: %v", err)
	}
	s.Close()
	if _, err := readChunks(s, id, run); err == nil {
		t.Fatal("after Close the header is read again, and a spoiled one must fail")
	}
}

func TestIDNumberingSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := s1.Store(seqArray(t, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Old array is still readable.
	if _, err := s2.Open(id1); err != nil {
		t.Fatal(err)
	}
	id2, err := s2.Store(seqArray(t, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Fatal("IDs must not be reused across reopen")
	}
}

// Property: file round trip preserves arbitrary 2-D shapes.
func TestFileRoundTripProperty(t *testing.T) {
	s := newStore(t)
	f := func(rows8, cols8, chunk8 uint8) bool {
		rows := int(rows8%10) + 1
		cols := int(cols8%10) + 1
		chunkElems := int(chunk8%20) + 1
		n := rows * cols
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(i * 7)
		}
		a, err := array.FromInts(data, rows, cols)
		if err != nil {
			return false
		}
		id, err := s.Store(a, chunkElems)
		if err != nil {
			return false
		}
		back, err := s.Open(id)
		if err != nil {
			return false
		}
		eq, err := array.Equal(a, back)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// readChunks drains ReadChunksCtx into a map by chunk number.
func readChunks(s *Store, id int64, runs []spd.Run) (map[int][]byte, error) {
	out := make(map[int][]byte)
	err := s.ReadChunksCtx(context.Background(), id, runs, func(chunkNo int, data []byte) error {
		out[chunkNo] = data
		return nil
	})
	return out, err
}
