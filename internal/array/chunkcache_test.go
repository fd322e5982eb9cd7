package array

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"scisparql/internal/spd"
)

// chunkPayload builds a chunk of chunkElems int64 elements where
// element e of chunk c holds c*chunkElems+e.
func chunkPayload(chunkNo, chunkElems int) []byte {
	data := make([]byte, chunkElems*ElemSize)
	for e := 0; e < chunkElems; e++ {
		binary.LittleEndian.PutUint64(data[e*ElemSize:], uint64(chunkNo*chunkElems+e))
	}
	return data
}

// countingSource serves deterministic chunks and counts fetches.
type countingSource struct {
	mu         sync.Mutex
	chunkElems int
	nchunks    int
	reads      int64
	chunkReads map[int]int
	delay      time.Duration
}

func newCountingSource(chunkElems, nchunks int) *countingSource {
	return &countingSource{chunkElems: chunkElems, nchunks: nchunks, chunkReads: map[int]int{}}
}

func (s *countingSource) ReadChunksCtx(_ context.Context, arrayID int64, runs []spd.Run, emit func(chunkNo int, data []byte) error) error {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	chunks := spd.Expand(runs)
	s.mu.Lock()
	s.reads++
	for _, c := range chunks {
		if c < 0 || c >= s.nchunks {
			s.mu.Unlock()
			return fmt.Errorf("chunk %d out of range", c)
		}
		s.chunkReads[c]++
	}
	s.mu.Unlock()
	for _, c := range chunks {
		if err := emit(c, chunkPayload(c, s.chunkElems)); err != nil {
			return err
		}
	}
	return nil
}

func (s *countingSource) AggregateWhole(int64) (*AggState, bool, error) { return nil, false, nil }

func (s *countingSource) readsFor(chunkNo int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chunkReads[chunkNo]
}

// TestLRUHotChunkSurvives is the defining LRU property the old FIFO
// lacked: a chunk re-referenced during a long cold scan must stay
// cached while the scan's own chunks evict each other.
func TestLRUHotChunkSurvives(t *testing.T) {
	const chunkElems = 8
	chunkBytes := int64(chunkElems * ElemSize)
	src := newCountingSource(chunkElems, 128)
	cache := NewChunkCache(8 * chunkBytes) // room for 8 chunks
	p := NewProxy(src, 1, chunkElems)
	p.Cache = cache

	touch := func(chunkNo int) {
		t.Helper()
		if _, err := p.elementAt(chunkNo*chunkElems, Int); err != nil {
			t.Fatalf("chunk %d: %v", chunkNo, err)
		}
	}
	const hot = 0
	touch(hot)
	// A cold scan of 100 chunks, re-touching the hot chunk every few
	// steps so the LRU keeps refreshing it.
	for c := 1; c <= 100; c++ {
		touch(c)
		if c%4 == 0 {
			touch(hot)
		}
	}
	if got := src.readsFor(hot); got != 1 {
		t.Fatalf("hot chunk fetched %d times; LRU should have kept it cached (1 fetch)", got)
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatal("cold scan should have caused evictions")
	}
	if st.Bytes > 8*chunkBytes {
		t.Fatalf("cached bytes %d exceed budget %d", st.Bytes, 8*chunkBytes)
	}
	if st.PeakBytes > 8*chunkBytes {
		t.Fatalf("peak cached bytes %d exceed budget %d", st.PeakBytes, 8*chunkBytes)
	}
}

// TestChunkCachePeakNeverExceedsBudget drives a scan much larger than
// the budget through every read path and asserts the high-water mark of
// retained bytes stayed within the budget (the PR's bounded-memory
// acceptance criterion).
func TestChunkCachePeakNeverExceedsBudget(t *testing.T) {
	const chunkElems = 16
	chunkBytes := int64(chunkElems * ElemSize)
	budget := 4 * chunkBytes
	src := newCountingSource(chunkElems, 256)
	cache := NewChunkCache(budget)
	p := NewProxy(src, 1, chunkElems)
	p.Cache = cache

	a, err := NewProxied(p, Int, 256*chunkElems)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Sum(); err != nil {
		t.Fatal(err)
	}
	if err := p.PrefetchChunks([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.PeakBytes > budget {
		t.Fatalf("peak cached bytes %d exceed budget %d", st.PeakBytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a tiny budget")
	}
}

// TestSingleflightCoalescesConcurrentFetches: many goroutines missing
// on the same chunk must produce exactly one back-end read.
func TestSingleflightCoalescesConcurrentFetches(t *testing.T) {
	const chunkElems = 8
	src := newCountingSource(chunkElems, 4)
	src.delay = 20 * time.Millisecond // hold the flight open
	cache := NewChunkCache(0)
	p := NewProxy(src, 1, chunkElems)
	p.Cache = cache

	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.elementAt(3, Int)
			if err != nil {
				errs <- err
				return
			}
			if v.I != 3 {
				errs <- fmt.Errorf("got %d want 3", v.I)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := src.readsFor(0); got != 1 {
		t.Fatalf("chunk 0 fetched %d times; concurrent misses must coalesce to 1", got)
	}
	st := cache.Stats()
	if st.Coalesced == 0 {
		t.Fatal("expected coalesced lookups to be counted")
	}
}

// TestSetBudgetEvictsImmediately: shrinking the budget below the
// resident bytes evicts on the spot.
func TestSetBudgetEvictsImmediately(t *testing.T) {
	const chunkElems = 8
	chunkBytes := int64(chunkElems * ElemSize)
	src := newCountingSource(chunkElems, 16)
	cache := NewChunkCache(0)
	p := NewProxy(src, 1, chunkElems)
	p.Cache = cache
	if err := p.PrefetchChunks([]int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Entries; got != 8 {
		t.Fatalf("entries = %d, want 8", got)
	}
	cache.SetBudget(2 * chunkBytes)
	st := cache.Stats()
	if st.Entries != 2 || st.Bytes != 2*chunkBytes {
		t.Fatalf("after shrink: entries=%d bytes=%d, want 2 entries / %d bytes", st.Entries, st.Bytes, 2*chunkBytes)
	}
}

// TestSharedCacheKeyedByBackend: two proxies with the same array ID on
// different sources must not read each other's chunks.
func TestSharedCacheKeyedByBackend(t *testing.T) {
	const chunkElems = 4
	srcA := newCountingSource(chunkElems, 4)
	srcB := newCountingSource(chunkElems, 4)
	cache := NewChunkCache(0)
	pa := NewProxy(srcA, 1, chunkElems)
	pa.Cache = cache
	pb := NewProxy(srcB, 1, chunkElems)
	pb.Cache = cache
	if _, err := pa.elementAt(0, Int); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.elementAt(0, Int); err != nil {
		t.Fatal(err)
	}
	if srcA.readsFor(0) != 1 || srcB.readsFor(0) != 1 {
		t.Fatalf("each backend must see its own fetch: a=%d b=%d", srcA.readsFor(0), srcB.readsFor(0))
	}
	if pa.CachedChunks() != 1 || pb.CachedChunks() != 1 {
		t.Fatalf("per-array accounting wrong: a=%d b=%d", pa.CachedChunks(), pb.CachedChunks())
	}
	pa.DropCache()
	if pa.CachedChunks() != 0 || pb.CachedChunks() != 1 {
		t.Fatalf("DropCache must only purge its own array: a=%d b=%d", pa.CachedChunks(), pb.CachedChunks())
	}
}
