package filestore

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/spd"
	"scisparql/internal/storage"
)

// intArray builds a resident int array where element e holds e.
func intArray(t *testing.T, n int) *array.Array {
	t.Helper()
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	a, err := array.FromInts(data, n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func checkChunks(t *testing.T, got map[int][]byte, chunkElems int, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d chunks, want %d", len(got), len(want))
	}
	for _, cn := range want {
		data, ok := got[cn]
		if !ok {
			t.Fatalf("chunk %d missing", cn)
		}
		for e := 0; e*array.ElemSize < len(data); e++ {
			v := int64(binary.LittleEndian.Uint64(data[e*array.ElemSize:]))
			if v != int64(cn*chunkElems+e) {
				t.Fatalf("chunk %d elem %d = %d, want %d", cn, e, v, cn*chunkElems+e)
			}
		}
	}
}

// TestReadChunksCtxReadUnits: the streaming read returns every chunk's
// stored payload, for contiguous, strided and mixed run sets, with and
// without per-request latency (which switches between coalesced and
// per-chunk read units).
func TestReadChunksCtxReadUnits(t *testing.T) {
	const chunkElems = 16
	s := newStore(t)
	id, err := s.Store(intArray(t, 40*chunkElems), chunkElems)
	if err != nil {
		t.Fatal(err)
	}
	runSets := [][]spd.Run{
		{{Start: 0, Stride: 1, Count: 10}},
		{{Start: 1, Stride: 3, Count: 8}},
		{{Start: 0, Stride: 1, Count: 4}, {Start: 20, Stride: 2, Count: 5}, {Start: 39, Stride: 1, Count: 1}},
	}
	for _, latency := range []time.Duration{0, 50 * time.Microsecond} {
		s.SimulatedLatency = latency
		for _, runs := range runSets {
			streamed, err := readChunks(s, id, runs)
			if err != nil {
				t.Fatalf("latency %v runs %v: %v", latency, runs, err)
			}
			checkChunks(t, streamed, chunkElems, spd.Expand(runs))
		}
	}
}

// TestConcurrentInterleavedReads: many goroutines issue interleaved,
// overlapping run sets against the same shared file handle. Positioned
// reads must never cross-contaminate; every caller sees its own chunks
// intact. Run with -race in CI.
func TestConcurrentInterleavedReads(t *testing.T) {
	const chunkElems = 8
	const nchunks = 64
	s := newStore(t)
	s.SimulatedLatency = 20 * time.Microsecond // per-chunk units + worker pool
	id, err := s.Store(intArray(t, nchunks*chunkElems), chunkElems)
	if err != nil {
		t.Fatal(err)
	}
	storage.SetParallelism(8)
	defer storage.SetParallelism(0)

	runSets := [][]spd.Run{
		{{Start: 0, Stride: 2, Count: 32}}, // even chunks
		{{Start: 1, Stride: 2, Count: 32}}, // odd chunks (interleaved)
		{{Start: 0, Stride: 1, Count: 64}}, // everything
		{{Start: 5, Stride: 7, Count: 8}},  // sparse stride
		{{Start: 60, Stride: 1, Count: 4}}, // tail
	}
	const loops = 10
	var wg sync.WaitGroup
	errs := make(chan error, len(runSets)*loops)
	for li := 0; li < loops; li++ {
		for _, runs := range runSets {
			wg.Add(1)
			go func(runs []spd.Run) {
				defer wg.Done()
				got := make(map[int][]byte)
				err := s.ReadChunksCtx(context.Background(), id, runs, func(chunkNo int, data []byte) error {
					got[chunkNo] = data
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				want := spd.Expand(runs)
				if len(got) != len(want) {
					errs <- fmt.Errorf("got %d chunks, want %d", len(got), len(want))
					return
				}
				for _, cn := range want {
					data := got[cn]
					for e := 0; e*array.ElemSize < len(data); e++ {
						v := int64(binary.LittleEndian.Uint64(data[e*array.ElemSize:]))
						if v != int64(cn*chunkElems+e) {
							errs <- fmt.Errorf("chunk %d elem %d = %d, want %d", cn, e, v, cn*chunkElems+e)
							return
						}
					}
				}
			}(runs)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent read corrupted or failed: %v", err)
	}
	if peak := s.InflightPeak(); peak < 2 {
		t.Fatalf("inflight peak = %d; worker pool never overlapped reads", peak)
	}
}

// TestReadChunksCtxCancellation: a cancelled context stops the unit
// pipeline with the context's error.
func TestReadChunksCtxCancellation(t *testing.T) {
	const chunkElems = 8
	s := newStore(t)
	id, err := s.Store(intArray(t, 64*chunkElems), chunkElems)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = s.ReadChunksCtx(ctx, id, []spd.Run{{Start: 0, Stride: 1, Count: 64}}, func(int, []byte) error {
		return nil
	})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
}
