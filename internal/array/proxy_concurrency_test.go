package array

import (
	"context"
	"sync"
	"testing"

	"scisparql/internal/spd"
)

// lockedSource is a concurrency-safe ChunkSource for stress tests:
// element i of the synthetic float array has value i.
type lockedSource struct {
	nelems     int
	chunkElems int

	mu    sync.Mutex
	calls int
}

func (s *lockedSource) ReadChunksCtx(_ context.Context, arrayID int64, runs []spd.Run, emit func(chunkNo int, data []byte) error) error {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return emitFloats(s.nelems, s.chunkElems, runs, emit)
}

func (s *lockedSource) AggregateWhole(int64) (*AggState, bool, error) {
	return nil, false, nil
}

// TestProxyConcurrentReaders hammers one shared proxy from many
// goroutines — random element reads, prefetches and cache inspection —
// with a small cache so eviction and re-fetch race with hits. Run
// under -race this verifies the chunk cache's locking.
func TestProxyConcurrentReaders(t *testing.T) {
	const nelems, chunkElems = 4096, 32
	src := &lockedSource{nelems: nelems, chunkElems: chunkElems}
	a, err := NewProxied(NewProxy(src, 1, chunkElems), Float, nelems)
	if err != nil {
		t.Fatal(err)
	}
	a.Base.Proxy.CacheCap = 8

	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				lin := (seed*131 + i*17) % nelems
				v, err := a.At(lin)
				if err != nil {
					t.Error(err)
					return
				}
				if v.Float() != float64(lin) {
					t.Errorf("element %d read as %v under concurrency", lin, v)
					return
				}
				if i%64 == 0 {
					if err := a.Base.Proxy.PrefetchChunks([]int{lin / chunkElems, (lin/chunkElems + 1) % (nelems / chunkElems)}); err != nil {
						t.Error(err)
						return
					}
					a.Base.Proxy.CachedChunks()
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestProxyPrefetchDoesNotMutateInput guards the fetchMissing fix: the
// chunk list passed by the caller must come back untouched even when
// some chunks are already cached (the old code filtered in place,
// scribbling over the caller's slice).
func TestProxyPrefetchDoesNotMutateInput(t *testing.T) {
	const nelems, chunkElems = 256, 16
	src := &lockedSource{nelems: nelems, chunkElems: chunkElems}
	p := NewProxy(src, 1, chunkElems)
	if err := p.PrefetchChunks([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	chunks := []int{0, 1, 2, 3, 4, 5}
	if err := p.PrefetchChunks(chunks); err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if c != i {
			t.Fatalf("input slice mutated: %v", chunks)
		}
	}
}
