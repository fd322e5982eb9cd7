package array

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"

	"scisparql/internal/spd"
)

// fakeSource serves chunks of a synthetic float array whose element i
// has value i, and records every ReadChunksCtx call.
type fakeSource struct {
	nelems     int
	chunkElems int
	calls      [][]spd.Run
	aggCapable bool
}

func (s *fakeSource) ReadChunksCtx(_ context.Context, arrayID int64, runs []spd.Run, emit func(chunkNo int, data []byte) error) error {
	s.calls = append(s.calls, runs)
	return emitFloats(s.nelems, s.chunkElems, runs, emit)
}

// emitFloats emits the chunks runs name of a float array of nelems
// elements, element i holding i, or fails before emitting any when one
// is out of range.
func emitFloats(nelems, chunkElems int, runs []spd.Run, emit func(chunkNo int, data []byte) error) error {
	chunks := spd.Expand(runs)
	for _, c := range chunks {
		if c*chunkElems >= nelems {
			return fmt.Errorf("chunk %d out of range", c)
		}
	}
	for _, c := range chunks {
		lo := c * chunkElems
		hi := min(lo+chunkElems, nelems)
		buf := make([]byte, (hi-lo)*ElemSize)
		for i := lo; i < hi; i++ {
			EncodeElem(buf[(i-lo)*ElemSize:], FloatN(float64(i)), Float)
		}
		if err := emit(c, buf); err != nil {
			return err
		}
	}
	return nil
}

func (s *fakeSource) AggregateWhole(arrayID int64) (*AggState, bool, error) {
	if !s.aggCapable {
		return nil, false, nil
	}
	st := NewAggState()
	for i := 0; i < s.nelems; i++ {
		st.Add(FloatN(float64(i)))
	}
	return st, true, nil
}

func newProxied(t *testing.T, nelems, chunkElems int, shape ...int) (*Array, *fakeSource) {
	t.Helper()
	src := &fakeSource{nelems: nelems, chunkElems: chunkElems}
	a, err := NewProxied(NewProxy(src, 1, chunkElems), Float, shape...)
	if err != nil {
		t.Fatal(err)
	}
	return a, src
}

func TestProxyElementAccess(t *testing.T) {
	a, src := newProxied(t, 100, 10, 10, 10)
	v, err := a.At(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 37 {
		t.Fatalf("got %v, want 37", v)
	}
	if len(src.calls) != 1 {
		t.Fatalf("expected 1 fetch, got %d", len(src.calls))
	}
	// Same chunk again: served from cache.
	if _, err := a.At(3, 8); err != nil {
		t.Fatal(err)
	}
	if len(src.calls) != 1 {
		t.Fatalf("cache miss: %d fetches", len(src.calls))
	}
}

func TestProxyPrefetchBatchesChunks(t *testing.T) {
	a, src := newProxied(t, 1000, 10, 1000)
	v, err := a.Deref([]Range{Span(0, 500)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := v.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := m.At(499); got.Float() != 499 {
		t.Fatalf("got %v", got)
	}
	if len(src.calls) != 1 {
		t.Fatalf("expected single batched fetch, got %d", len(src.calls))
	}
	// The 50 needed chunks are contiguous: SPD should compress them to
	// one run.
	if len(src.calls[0]) != 1 {
		t.Fatalf("expected 1 run, got %v", src.calls[0])
	}
	if src.calls[0][0] != (spd.Run{Start: 0, Stride: 1, Count: 50}) {
		t.Fatalf("got run %+v", src.calls[0][0])
	}
}

func TestProxyStridedAccessDetected(t *testing.T) {
	a, src := newProxied(t, 1000, 10, 1000)
	// Every 30th element touches every 3rd chunk.
	v, err := a.Deref([]Range{SpanStep(0, 1000, 30)})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := v.Sum()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < 1000; i += 30 {
		want += float64(i)
	}
	if sum.Float() != want {
		t.Fatalf("sum %v, want %v", sum, want)
	}
	if len(src.calls) != 1 {
		t.Fatalf("expected 1 batched call, got %d", len(src.calls))
	}
	runs := src.calls[0]
	if len(runs) != 1 || runs[0].Stride != 3 {
		t.Fatalf("expected single stride-3 run, got %v", runs)
	}
}

func TestProxyAAPRDelegation(t *testing.T) {
	a, src := newProxied(t, 100, 10, 100)
	src.aggCapable = true
	sum, err := a.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Float() != 4950 {
		t.Fatalf("sum %v", sum)
	}
	if len(src.calls) != 0 {
		t.Fatal("AAPR should not transfer chunks")
	}
}

func TestProxyAggregateFallback(t *testing.T) {
	a, src := newProxied(t, 100, 10, 100)
	sum, err := a.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Float() != 4950 {
		t.Fatalf("sum %v", sum)
	}
	if len(src.calls) == 0 {
		t.Fatal("fallback should fetch chunks")
	}
}

func TestProxyViewAggregateNotDelegated(t *testing.T) {
	a, src := newProxied(t, 100, 10, 100)
	src.aggCapable = true
	v, _ := a.Deref([]Range{Span(0, 10)})
	sum, err := v.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Float() != 45 {
		t.Fatalf("sum %v", sum)
	}
	if len(src.calls) == 0 {
		t.Fatal("partial view must fetch chunks, not delegate")
	}
}

func TestProxyCacheEviction(t *testing.T) {
	src := &fakeSource{nelems: 100, chunkElems: 10}
	p := NewProxy(src, 1, 10)
	p.CacheCap = 2
	a, err := NewProxied(p, Float, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i += 10 {
		if _, err := a.At(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.CachedChunks(); got > 2 {
		t.Fatalf("cache holds %d chunks, cap is 2", got)
	}
	p.DropCache()
	if p.CachedChunks() != 0 {
		t.Fatal("DropCache did not clear")
	}
}

func TestProxyShortFinalChunk(t *testing.T) {
	// 95 elements with chunk size 10: final chunk has 5 elements.
	a, _ := newProxied(t, 95, 10, 95)
	v, err := a.At(94)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 94 {
		t.Fatalf("got %v", v)
	}
}

func TestTouchedChunks(t *testing.T) {
	a := NewFloat(100)
	v, _ := a.Deref([]Range{SpanStep(0, 100, 25)}) // elements 0,25,50,75
	got := v.TouchedChunks(10)
	want := []int{0, 2, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// touchedByMap is TouchedChunks as a set of every element's chunk,
// sorted: the reference the run-skipping walk is held to.
func touchedByMap(a *Array, chunkElems int) []int {
	seen := map[int]bool{}
	idx := make([]int, len(a.Shape))
	for range a.Count() {
		lin := a.Offset
		for d, x := range idx {
			lin += x * a.Strides[d]
		}
		seen[lin/chunkElems] = true
		incIndex(idx, a.Shape)
	}
	return slices.Sorted(maps.Keys(seen))
}

// TestTouchedChunksMatchesSet: on row-major, strided, transposed and
// single-element views, and at chunk sizes that do and do not divide a
// row, TouchedChunks names exactly the chunks of the view's elements.
func TestTouchedChunksMatchesSet(t *testing.T) {
	base := NewFloat(12, 10)
	views := map[string]*Array{"row-major": base}
	add := func(name string, v *Array, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		views[name] = v
	}
	v, err := base.Deref([]Range{SpanStep(1, 12, 3), SpanStep(0, 10, 4)})
	add("strided", v, err)
	v, err = base.Transpose(nil)
	add("transposed", v, err)
	v, err = views["strided"].Transpose(nil)
	add("strided transposed", v, err)
	v, err = base.Deref([]Range{Idx(7), Idx(3)})
	add("single element", v, err)
	v, err = base.Deref([]Range{Span(2, 9), Idx(5)})
	add("column", v, err)
	for name, v := range views {
		for _, chunk := range []int{1, 3, 7, 10, 16, 200} {
			if got, want := v.TouchedChunks(chunk), touchedByMap(v, chunk); !slices.Equal(got, want) {
				t.Errorf("%s, %d-element chunks: TouchedChunks = %v, want %v", name, chunk, got, want)
			}
		}
	}
}

// TestTouchedChunksBoundedByChunks: the transposed view of a 1000x1000
// array at 1000-element chunks changes chunk at every element, yet
// TouchedChunks allocates within 128 B per chunk (it reads 60 B), not
// 8 B per element.
func TestTouchedChunksBoundedByChunks(t *testing.T) {
	v, err := NewFloat(1000, 1000).Transpose(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The least of three runs, so a background allocation does not count.
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := v.TouchedChunks(1000)
		runtime.ReadMemStats(&after)
		if len(got) != 1000 {
			t.Fatalf("%d chunks, want 1000", len(got))
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d B for 1000 chunks", least)
	if least > 128*1000 {
		t.Fatalf("TouchedChunks allocated %d B for 1000 chunks, want <= %d", least, 128*1000)
	}
}

func TestNewProxyPanicsOnBadChunkSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProxy(nil, 1, 0)
}
