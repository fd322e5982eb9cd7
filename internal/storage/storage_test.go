package storage

import (
	"testing"
	"testing/quick"

	"scisparql/internal/array"
)

func seqArray(t *testing.T, n int) *array.Array {
	t.Helper()
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	a, err := array.FromFloats(data, n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestChunkElemsFor(t *testing.T) {
	if got := ChunkElemsFor(64 * 1024); got != 8192 {
		t.Fatalf("got %d", got)
	}
	if got := ChunkElemsFor(1); got != 1 {
		t.Fatalf("tiny chunk size should clamp to 1, got %d", got)
	}
}

func TestSplitChunks(t *testing.T) {
	m := NewMemory()
	id, err := m.Store(seqArray(t, 100), 30)
	if err != nil {
		t.Fatal(err)
	}
	chunks := m.arrays[id].chunks
	if len(chunks) != 4 {
		t.Fatalf("chunks %d", len(chunks))
	}
	if len(chunks[3]) != 10*array.ElemSize {
		t.Fatalf("final chunk %d bytes", len(chunks[3]))
	}
	if NumChunks(100, 30) != 4 {
		t.Fatal("NumChunks mismatch")
	}
}

func TestMemoryStoreOpenRoundTrip(t *testing.T) {
	m := NewMemory()
	a := seqArray(t, 1000)
	id, err := m.Store(a, 100)
	if err != nil {
		t.Fatal(err)
	}
	back, err := m.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := array.Equal(a, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("round trip mismatch")
	}
}

func TestMemoryOpenUnknown(t *testing.T) {
	m := NewMemory()
	if _, err := m.Open(42); err == nil {
		t.Fatal("expected error")
	}
	if err := m.Delete(42); err == nil {
		t.Fatal("expected error")
	}
}

func TestMemoryDelete(t *testing.T) {
	m := NewMemory()
	id, err := m.Store(seqArray(t, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(id); err == nil {
		t.Fatal("deleted array should be gone")
	}
}

func TestMemoryAggregateCapable(t *testing.T) {
	m := NewMemory()
	id, err := m.Store(seqArray(t, 100), 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	m.ReadCalls = 0
	sum, err := a.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Float() != 4950 {
		t.Fatalf("sum %v", sum)
	}
	if m.ReadCalls != 0 {
		t.Fatal("AAPR should not read chunks")
	}
}

func TestMemorySliceAccessCountsChunks(t *testing.T) {
	m := NewMemory()
	id, err := m.Store(seqArray(t, 1000), 10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Deref([]array.Range{array.Span(100, 200)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Materialize(); err != nil {
		t.Fatal(err)
	}
	if m.ChunksServed != 10 {
		t.Fatalf("served %d chunks, want 10", m.ChunksServed)
	}
}

func TestStoreDefaultChunkSize(t *testing.T) {
	m := NewMemory()
	id, err := m.Store(seqArray(t, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base.Proxy.ChunkElems != ChunkElemsFor(DefaultChunkBytes) {
		t.Fatalf("chunk elems %d", a.Base.Proxy.ChunkElems)
	}
}

// Property: store/open round-trips arbitrary int vectors for any chunk
// size.
func TestMemoryRoundTripProperty(t *testing.T) {
	f := func(data []int64, chunk8 uint8) bool {
		if len(data) == 0 {
			return true
		}
		chunkElems := int(chunk8%32) + 1
		a, err := array.FromInts(append([]int64(nil), data...), len(data))
		if err != nil {
			return false
		}
		m := NewMemory()
		id, err := m.Store(a, chunkElems)
		if err != nil {
			return false
		}
		back, err := m.Open(id)
		if err != nil {
			return false
		}
		eq, err := array.Equal(a, back)
		return err == nil && eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
