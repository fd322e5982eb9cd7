package filestore

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"scisparql/internal/array"
)

// poisonSource hands the chunk cache this store's frames and, when the
// cache gives one back, fills it with a poison pattern before pooling
// it. A frame recycled while a reader still decodes it then shows up as
// a wrong element (and, under -race, as a data race).
type poisonSource struct {
	*Store
	recycled atomic.Int64
}

func (p *poisonSource) RecycleChunk(data []byte) {
	full := data[:cap(data)]
	for i := range full {
		full[i] = 0xA5
	}
	p.recycled.Add(1)
	p.Store.RecycleChunk(data)
}

// proxiedCopies stores that many float arrays of n elements in st and
// returns each twice: proxied over src through cache, and resident.
func proxiedCopies(t *testing.T, st *Store, src array.ChunkSource, cache *array.ChunkCache, arrays, n, chunkElems int) (proxied, resident []*array.Array) {
	t.Helper()
	for k := 0; k < arrays; k++ {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(k*1_000_000+i) * 1.5
		}
		a, err := array.FromFloats(data, n)
		if err != nil {
			t.Fatal(err)
		}
		id, err := st.Store(a, chunkElems)
		if err != nil {
			t.Fatal(err)
		}
		p := array.NewProxy(src, id, chunkElems)
		p.Cache = cache
		pa, err := array.NewProxied(p, array.Float, n)
		if err != nil {
			t.Fatal(err)
		}
		proxied, resident = append(proxied, pa), append(resident, a)
	}
	return proxied, resident
}

// TestRecycledFramesUnderConcurrency drives a chunk cache of a few
// frames over a real file store from eight goroutines: whole-view
// streams, strided views read element by element after a prefetch,
// DropCache, SetBudget and Reset, every element checked against a
// resident copy. Frames come back poisoned, so one recycled under a
// reader, or shared by two chunks, reads wrong.
func TestRecycledFramesUnderConcurrency(t *testing.T) {
	const (
		chunkElems = 64
		frame      = chunkElems * array.ElemSize
		n          = 20*chunkElems + 37 // a short last chunk
	)
	st := newStore(t)
	src := &poisonSource{Store: st}
	cache := array.NewChunkCache(4 * frame)
	proxied, resident := proxiedCopies(t, st, src, cache, 4, n, chunkElems)

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 300; it++ {
				k := rng.Intn(len(proxied))
				pa, ra := proxied[k], resident[k]
				switch op := rng.Intn(9); {
				case op < 2:
					m, err := pa.MaterializeCtx(ctx)
					if err != nil {
						t.Error(err)
						return
					}
					if eq, _ := array.Equal(m, ra); !eq {
						t.Errorf("materialize: array %d reads differently from its resident copy", k)
						return
					}
				case op < 4:
					i := 0
					err := pa.EachCtx(ctx, func(_ []int, v array.Number) error {
						if want, _ := ra.At(i); v != want {
							return fmt.Errorf("each: element %d of array %d reads %v, want %v", i, k, v, want)
						}
						i++
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				case op < 6:
					r := []array.Range{array.SpanStep(rng.Intn(chunkElems), n-1-rng.Intn(chunkElems), 1+rng.Intn(3*chunkElems))}
					pv, err := pa.Deref(r)
					if err != nil {
						t.Error(err)
						return
					}
					rv, _ := ra.Deref(r)
					if err := pv.PrefetchCtx(ctx); err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < pv.Count(); i++ {
						got, err := pv.At(i)
						if want, _ := rv.At(i); err != nil || got != want {
							t.Errorf("strided: element %d of array %d reads %v (%v), want %v", i, k, got, err, want)
							return
						}
					}
				case op == 6:
					pa.Base.Proxy.DropCache()
				case op == 7:
					cache.SetBudget(int64(1+rng.Intn(6)) * frame)
				default:
					cache.Reset()
				}
			}
		}()
	}
	wg.Wait()
	if src.recycled.Load() == 0 {
		t.Error("no frame was recycled; the test exercised nothing")
	}
}

// TestGuardChunkMissBytes bounds what a chunk miss allocates once the
// frame pool is warm: streams through a Proxy over this store, with a
// working set four times the cache, so that every read is a miss and
// every miss lets a cached frame go. A miss reads into a frame the cache
// gave back, so what is left is the cache's entry and flight and the
// stream's bookkeeping: 574–584 B per miss over twenty runs. With a
// fresh buffer per read it was 16 988–16 999 B, a whole chunk and more.
//
// As for the other guards, the collector is off (a collection empties
// the frame pool) and one processor holds the pool (a pool keeps one
// private object per processor, out of the others' reach).
func TestGuardChunkMissBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead is not what this measures")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const chunkElems = 2048 // 16 KiB chunks, as the benchmark's stores
	st := newStore(t)
	cache := array.NewChunkCache(32 * chunkElems * array.ElemSize)
	proxied, _ := proxiedCopies(t, st, st, cache, 4, 32*chunkElems, chunkElems)
	ctx := context.Background()
	read := func() {
		for _, a := range proxied {
			if err := a.EachCtx(ctx, func([]int, array.Number) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	read() // open the files, fill the pools
	var m0, m1 runtime.MemStats
	s0 := cache.Stats()
	runtime.ReadMemStats(&m0)
	for range 4 {
		read()
	}
	runtime.ReadMemStats(&m1)
	misses := cache.Stats().Misses - s0.Misses
	if misses != 4*4*32 {
		t.Fatalf("%d misses over 4 passes, want every chunk read a miss (%d)", misses, 4*4*32)
	}
	perMiss := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(misses)
	t.Logf("%.0f B per chunk miss", perMiss)
	if perMiss >= 1024 {
		t.Errorf("%.0f B per chunk miss, want under 1 KiB", perMiss)
	}
}
