package relbackend

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"testing"
	"time"

	"scisparql/internal/spd"
	"scisparql/internal/storage"
)

// readAll drains ReadChunksCtx into a map by chunk number.
func readAll(t *testing.T, b *Backend, id int64, runs []spd.Run) map[int][]byte {
	t.Helper()
	out := make(map[int][]byte)
	err := b.ReadChunksCtx(context.Background(), id, runs, func(chunkNo int, data []byte) error {
		out[chunkNo] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadChunksCtxAllStrategies: the streaming read returns every
// chunk's stored payload, and no other chunk, under every retrieval
// strategy (SINGLE = one statement per chunk, BUFFER = IN-lists, SPD =
// run descriptions), for contiguous, strided and mixed run sets.
func TestReadChunksCtxAllStrategies(t *testing.T) {
	runSets := [][]spd.Run{
		{{Start: 0, Stride: 1, Count: 10}},
		{{Start: 2, Stride: 3, Count: 9}},
		{{Start: 0, Stride: 1, Count: 3}, {Start: 50, Stride: 5, Count: 6}, {Start: 99, Stride: 1, Count: 1}},
	}
	for _, strat := range []Strategy{StrategySingle, StrategyBuffered, StrategySPD} {
		t.Run(strat.String(), func(t *testing.T) {
			b := newBackend(t, strat)
			b.BufferSize = 4
			id, err := b.Store(seqArray(t, 1000), 10) // 100 chunks
			if err != nil {
				t.Fatal(err)
			}
			for _, runs := range runSets {
				chunks := spd.Expand(runs)
				streamed := readAll(t, b, id, runs)
				if len(streamed) != len(chunks) {
					t.Fatalf("runs %v: streamed %d chunks, want %d", runs, len(streamed), len(chunks))
				}
				for _, cn := range chunks {
					var want []byte
					for e := cn * 10; e < cn*10+10; e++ {
						want = binary.LittleEndian.AppendUint64(want, math.Float64bits(float64(e)))
					}
					if got, ok := streamed[cn]; !ok || string(got) != string(want) {
						t.Fatalf("runs %v: chunk %d is %x, want %x", runs, cn, got, want)
					}
				}
			}
		})
	}
}

// TestReadChunksCtxStatementParity: streaming must not change how many
// SQL statements each strategy issues — windowed scheduling upstream
// cuts only at run boundaries precisely to preserve these counts.
func TestReadChunksCtxStatementParity(t *testing.T) {
	runs := []spd.Run{{Start: 0, Stride: 1, Count: 10}}
	want := map[Strategy]int64{StrategySingle: 10, StrategyBuffered: 3, StrategySPD: 1}
	for _, strat := range []Strategy{StrategySingle, StrategyBuffered, StrategySPD} {
		b := newBackend(t, strat)
		b.BufferSize = 4
		id, err := b.Store(seqArray(t, 1000), 10)
		if err != nil {
			t.Fatal(err)
		}
		b.DB.ResetStats()
		readAll(t, b, id, runs)
		if got := b.DB.StatsSnapshot().Statements; got != want[strat] {
			t.Fatalf("%s: streaming read issued %d statements, want %d", strat, got, want[strat])
		}
	}
}

// TestReadCallsAndInflightPeak: per-backend stats must record fetch
// calls, and the worker pool must actually overlap statements when the
// store has round-trip latency and the run set decomposes into
// multiple units.
func TestReadCallsAndInflightPeak(t *testing.T) {
	b := newBackend(t, StrategySingle) // one statement (= one unit) per chunk
	b.DB.RoundTripDelay = 200 * time.Microsecond
	id, err := b.Store(seqArray(t, 640), 10) // 64 chunks
	if err != nil {
		t.Fatal(err)
	}
	storage.SetParallelism(8)
	defer storage.SetParallelism(0)

	if got := b.ReadCalls(); got != 0 {
		t.Fatalf("fresh backend has %d read calls", got)
	}
	runs := []spd.Run{{Start: 0, Stride: 1, Count: 64}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make(map[int][]byte)
			err := b.ReadChunksCtx(context.Background(), id, runs, func(chunkNo int, data []byte) error {
				got[chunkNo] = data
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != 64 {
				t.Errorf("got %d chunks, want 64", len(got))
			}
		}()
	}
	wg.Wait()
	if got := b.ReadCalls(); got != 4 {
		t.Fatalf("read calls = %d, want 4", got)
	}
	if peak := b.InflightPeak(); peak < 2 {
		t.Fatalf("inflight peak = %d; SINGLE units never overlapped", peak)
	}
}

// TestReadChunksCtxCancellationStopsStatements: a cancelled context
// must stop the statement pipeline early rather than running the full
// plan to completion.
func TestReadChunksCtxCancellationStopsStatements(t *testing.T) {
	b := newBackend(t, StrategySingle)
	id, err := b.Store(seqArray(t, 1000), 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = b.ReadChunksCtx(ctx, id, []spd.Run{{Start: 0, Stride: 1, Count: 100}}, func(int, []byte) error {
		return nil
	})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
}
