package storage_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/relstore"
	"scisparql/internal/spd"
	"scisparql/internal/storage"
	"scisparql/internal/storage/filestore"
	"scisparql/internal/storage/relbackend"
)

// specials are the floats whose bits a copy must keep: NaNs (one with a
// payload), both zeros and both infinities.
var specials = []float64{
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// referencePayload is what Store wrote before the chunk encoder: the view
// materialized element by element, then its copy's elements in order.
func referencePayload(t *testing.T, a *array.Array) []byte {
	t.Helper()
	var out []byte
	err := a.Each(func(_ []int, v array.Number) error {
		out = append(out, make([]byte, array.ElemSize)...)
		array.EncodeElem(out[len(out)-array.ElemSize:], v, a.Etype())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceFile is the file the file store wrote before the chunk
// encoder: its header, then referencePayload.
func referenceFile(t *testing.T, a *array.Array, chunkElems int) []byte {
	head := make([]byte, 12+8*len(a.Shape))
	binary.LittleEndian.PutUint32(head[0:], 0x53534d41)
	head[4] = byte(a.Etype())
	binary.LittleEndian.PutUint16(head[6:], uint16(len(a.Shape)))
	binary.LittleEndian.PutUint32(head[8:], uint32(chunkElems))
	for d, ext := range a.Shape {
		binary.LittleEndian.PutUint64(head[12+8*d:], uint64(ext))
	}
	return append(head, referencePayload(t, a)...)
}

// encodeViews returns named views over an int and a float base of shape
// 5×7 (the float one holding every special value), over a 1-element
// base, and over a proxied copy of the float base.
func encodeViews(t *testing.T) map[string]*array.Array {
	t.Helper()
	ints := make([]int64, 35)
	floats := make([]float64, 35)
	for i := range ints {
		ints[i] = int64(i*i) - 600 + math.MinInt64/2*int64(i%2)
		floats[i] = float64(i) / 3
	}
	copy(floats[3:], specials)
	ia, _ := array.FromInts(ints, 5, 7)
	fa, _ := array.FromFloats(floats, 5, 7)
	one, _ := array.FromFloats([]float64{math.Copysign(0, -1)}, 1)
	mem := storage.NewMemory()
	id, err := mem.Store(fa, 3)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := mem.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*array.Array{"one": one}
	for name, base := range map[string]*array.Array{"int": ia, "float": fa, "proxied": pa} {
		must := func(v *array.Array, err error) *array.Array {
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		views[name+"/whole"] = base
		views[name+"/rows"] = must(base.Deref([]array.Range{array.Span(1, 4)}))
		views[name+"/column"] = must(base.Deref([]array.Range{array.All(), array.Idx(2)}))
		views[name+"/strided"] = must(base.Deref([]array.Range{array.SpanStep(0, 5, 2), array.SpanStep(1, 7, 3)}))
		views[name+"/transposed"] = must(base.Transpose(nil))
		views[name+"/element"] = must(base.Deref([]array.Range{array.Idx(0), array.Idx(3)}))
	}
	return views
}

// TestStoreRoundTrip stores every view through each back-end at chunk
// sizes with a short last chunk, one element and more than the view,
// and checks the stored chunks, the reopened elements (bit for bit, so
// NaN, −0 and ±Inf compare by math.Float64bits) and, for the file store,
// the whole file against what the encoder before EncodeChunks wrote.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := filestore.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relbackend.New(relstore.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	backends := []storage.Backend{storage.NewMemory(), fs, rel}
	for name, v := range encodeViews(t) {
		want := referencePayload(t, v)
		for _, ce := range []int{1, 4, 64} {
			for _, b := range backends {
				t.Run(fmt.Sprintf("%s/%d/%s", name, ce, b.Name()), func(t *testing.T) {
					id, err := b.Store(v, ce)
					if err != nil {
						t.Fatal(err)
					}
					n := storage.NumChunks(v.Count(), ce)
					chunks := make(map[int][]byte)
					err = b.ReadChunksCtx(context.Background(), id, []spd.Run{{Start: 0, Stride: 1, Count: n}}, func(c int, data []byte) error {
						chunks[c] = data
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					var got []byte
					for c := range n {
						if len(chunks[c]) != min(ce, v.Count()-c*ce)*array.ElemSize {
							t.Fatalf("chunk %d is %d bytes", c, len(chunks[c]))
						}
						got = append(got, chunks[c]...)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("stored chunks differ from the reference payload")
					}
					back, err := b.Open(id)
					if err != nil {
						t.Fatal(err)
					}
					if !array.ShapeEqual(back.Shape, v.Shape) || back.Etype() != v.Etype() {
						t.Fatalf("reopened %v %v, want %v %v", back.Etype(), back.Shape, v.Etype(), v.Shape)
					}
					if !bytes.Equal(referencePayload(t, back), want) {
						t.Fatalf("reopened elements differ")
					}
					if b != fs {
						return
					}
					file, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("a%d.ssdm", id)))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(file, referenceFile(t, v, ce)) {
						t.Fatalf("file differs from the reference encoder's")
					}
				})
			}
		}
	}
}

// TestEncodeChunksReusesOneBuffer: the encoder hands every chunk of a
// resident contiguous view in the same buffer, so a back-end that keeps
// a payload must copy it; a chunk holds at least one element.
func TestEncodeChunksReusesOneBuffer(t *testing.T) {
	a, _ := array.FromFloats(make([]float64, 10), 10)
	var first *byte
	err := array.EncodeChunks(a, 4, func(c int, p []byte) error {
		if c == 0 {
			first = &p[0]
		} else if &p[0] != first {
			t.Errorf("chunk %d in a fresh buffer", c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := array.EncodeChunks(a, 0, func(int, []byte) error { n++; return nil }); err != nil || n != 10 {
		t.Fatalf("chunks of no elements: %d chunks, %v; want one element each", n, err)
	}
}

// downSource fails every read.
type downSource struct{}

func (downSource) ReadChunksCtx(context.Context, int64, []spd.Run, func(int, []byte) error) error {
	return errors.New("back-end down")
}

func (downSource) AggregateWhole(int64) (*array.AggState, bool, error) { return nil, false, nil }

// TestStoreFailureLeavesNothing: a view whose elements cannot be read
// stores nothing — no file, no rows, no ID to open.
func TestStoreFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	fs, err := filestore.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := relstore.NewDatabase()
	rel, err := relbackend.New(db)
	if err != nil {
		t.Fatal(err)
	}
	down, _ := array.NewProxied(array.NewProxy(downSource{}, 1, 4), array.Float, 16)
	for _, b := range []storage.Backend{storage.NewMemory(), fs, rel} {
		if id, err := b.Store(down, 4); err == nil {
			t.Fatalf("%s stored an unreadable view as %d", b.Name(), id)
		}
		if _, err := b.Open(1); err == nil {
			t.Fatalf("%s opens the failed store", b.Name())
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("the file store left %d files", len(files))
	}
	for _, table := range []string{"arrays", "chunks"} {
		res, err := db.Exec(`SELECT * FROM ` + table)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("the relational back-end left %d rows in %s", len(res.Rows), table)
		}
	}
}
