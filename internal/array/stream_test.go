package array

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"scisparql/internal/spd"
)

// gatedStreamSource is a ChunkSource. Chunks below gateAt are
// emitted immediately; later chunks block until the gate is opened (or
// the context is cancelled), letting tests freeze a stream mid-flight.
type gatedStreamSource struct {
	chunkElems int
	nchunks    int
	gateAt     int           // chunks >= gateAt wait for gate (gateAt<0: no gating)
	gate       chan struct{} // closed to open the gate

	mu    sync.Mutex
	reads int64
}

func (s *gatedStreamSource) ReadChunksCtx(ctx context.Context, arrayID int64, runs []spd.Run, emit func(chunkNo int, data []byte) error) error {
	s.mu.Lock()
	s.reads++
	s.mu.Unlock()
	for _, c := range spd.Expand(runs) {
		if c < 0 || c >= s.nchunks {
			return fmt.Errorf("chunk %d out of range", c)
		}
		if s.gateAt >= 0 && c >= s.gateAt {
			select {
			case <-s.gate:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := emit(c, chunkPayload(c, s.chunkElems)); err != nil {
			return err
		}
	}
	return nil
}

func (s *gatedStreamSource) AggregateWhole(int64) (*AggState, bool, error) { return nil, false, nil }

// TestStreamChunksInOrderDelivery: payloads arrive in ascending chunk
// order with correct contents, through a streaming source.
func TestStreamChunksInOrderDelivery(t *testing.T) {
	const chunkElems = 8
	src := &gatedStreamSource{chunkElems: chunkElems, nchunks: 64, gateAt: -1}
	p := NewProxy(src, 1, chunkElems)
	p.Cache = NewChunkCache(0)

	var got []int
	err := p.StreamChunks(context.Background(), []int{9, 3, 3, 40, 0}, func(cn int, data []byte) error {
		got = append(got, cn)
		if want := chunkPayload(cn, chunkElems); string(data) != string(want) {
			return fmt.Errorf("chunk %d: wrong payload", cn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 9, 40}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

// TestStreamingAggregateMatchesResident: a streamed proxied sum equals
// the resident sum, for both contiguous and strided views.
func TestStreamingAggregateMatchesResident(t *testing.T) {
	const chunkElems = 8
	const n = 1000 // last chunk short
	src := &gatedStreamSource{chunkElems: chunkElems, nchunks: (n + chunkElems - 1) / chunkElems, gateAt: -1}
	// The source serves element e = e, so sums are closed-form.
	p := NewProxy(src, 1, chunkElems)
	p.Cache = NewChunkCache(0)
	a, err := NewProxied(p, Int, n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n*(n-1)) / 2; s.I != want {
		t.Fatalf("streamed sum = %d, want %d", s.I, want)
	}
	// Strided view: every 3rd element.
	v, err := a.Deref([]Range{SpanStep(0, n-1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := v.Sum()
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for e := 0; e < n-1; e += 3 { // SpanStep's hi bound is exclusive
		want += int64(e)
	}
	if sv.I != want {
		t.Fatalf("strided streamed sum = %d, want %d", sv.I, want)
	}
}

// TestStreamingShortChunkDetected: a source that returns a truncated
// chunk must surface an element-beyond-chunk error from the streaming
// path, not silently decode garbage.
func TestStreamingShortChunkDetected(t *testing.T) {
	src := &truncatingSource{chunkElems: 8, nchunks: 4, truncateAt: 2}
	p := NewProxy(src, 1, 8)
	p.Cache = NewChunkCache(0)
	a, err := NewProxied(p, Int, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Sum(); err == nil {
		t.Fatal("expected short-chunk error from streaming iteration")
	}
}

type truncatingSource struct {
	chunkElems, nchunks, truncateAt int
}

func (s *truncatingSource) ReadChunksCtx(ctx context.Context, arrayID int64, runs []spd.Run, emit func(chunkNo int, data []byte) error) error {
	for _, c := range spd.Expand(runs) {
		data := chunkPayload(c, s.chunkElems)
		if c == s.truncateAt {
			data = data[:3] // not even one whole element
		}
		if err := emit(c, data); err != nil {
			return err
		}
	}
	return nil
}

func (s *truncatingSource) AggregateWhole(int64) (*AggState, bool, error) { return nil, false, nil }

// TestCancellationMidStreamNoGoroutineLeak cancels a query while its
// stream is blocked inside the back-end and asserts (a) the iteration
// returns the cancellation, and (b) the fetch goroutines exit — the
// goleak-style check, via goroutine counts since the repo carries no
// external dependencies.
func TestCancellationMidStreamNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	const chunkElems = 8
	src := &gatedStreamSource{
		chunkElems: chunkElems,
		nchunks:    64,
		gateAt:     8, // first 8 chunks flow, then the back-end stalls
		gate:       make(chan struct{}),
	}
	p := NewProxy(src, 1, chunkElems)
	p.Cache = NewChunkCache(0)
	a, err := NewProxied(p, Int, 64*chunkElems)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	consumed := 0
	done := make(chan error, 1)
	go func() {
		done <- a.EachCtx(ctx, func(_ []int, _ Number) error {
			consumed++
			return nil
		})
	}()
	// Let the first chunks stream through, then cancel mid-stream.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("EachCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EachCtx did not return after cancellation")
	}
	if consumed == 0 {
		t.Log("note: cancellation landed before any chunk was consumed")
	}

	// The in-flight fetch goroutines must wind down. Poll with a
	// deadline: goroutine exit is asynchronous after cancel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamStopFailsUnscheduledWindows: a stream that stops before
// its third fetch window is scheduled must still fail that window's
// claims. Otherwise a later reader of one of its chunks joins a fetch
// nobody makes, and without a deadline waits for ever.
func TestStreamStopFailsUnscheduledWindows(t *testing.T) {
	const chunkElems = streamWindowBytes / 16 / ElemSize // 16 chunks a window
	src := &gatedStreamSource{chunkElems: chunkElems, nchunks: 50, gateAt: 1, gate: make(chan struct{})}
	p := NewProxy(src, 1, chunkElems)
	p.Cache = NewChunkCache(0)
	var three []int // three runs of 16, so three windows
	for i := 0; i < 50; i++ {
		if i != 16 && i != 33 {
			three = append(three, i)
		}
	}
	if w := streamWindows(three, chunkElems*ElemSize); len(w) != 3 {
		t.Fatalf("%d windows, want 3", len(w))
	}
	stop := errors.New("stop")
	err := p.StreamChunks(context.Background(), three, func(int, []byte) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("StreamChunks returned %v, want the callback's error", err)
	}
	close(src.gate)
	done := make(chan error, 1)
	go func() {
		_, err := p.elementAt(40*chunkElems, Int)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a read of a chunk in the unscheduled window hangs")
	}
}

// TestConcurrentStressSharedProxiesTinyBudget hammers shared proxies
// from many goroutines through a cache far smaller than the working
// set: every read path (element, aggregate, prefetch) must stay
// correct while entries thrash. Run with -race in CI.
func TestConcurrentStressSharedProxiesTinyBudget(t *testing.T) {
	const chunkElems = 8
	const nchunks = 64
	chunkBytes := int64(chunkElems * ElemSize)
	src := &gatedStreamSource{chunkElems: chunkElems, nchunks: nchunks, gateAt: -1}
	cache := NewChunkCache(3 * chunkBytes) // far below the 64-chunk working set
	const arrays = 3
	proxies := make([]*Proxy, arrays)
	views := make([]*Array, arrays)
	for i := range proxies {
		proxies[i] = NewProxy(src, int64(i+1), chunkElems)
		proxies[i].Cache = cache
		a, err := NewProxied(proxies[i], Int, nchunks*chunkElems)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = a
	}
	n := nchunks * chunkElems
	wantSum := int64(n*(n-1)) / 2

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 30; iter++ {
				a := views[rng.Intn(arrays)]
				p := proxies[rng.Intn(arrays)]
				switch iter % 3 {
				case 0:
					s, err := a.Sum()
					if err != nil {
						errs <- err
						return
					}
					if s.I != wantSum {
						errs <- fmt.Errorf("sum = %d, want %d", s.I, wantSum)
						return
					}
				case 1:
					e := rng.Intn(n)
					v, err := a.At(e)
					if err != nil {
						errs <- err
						return
					}
					if v.I != int64(e) {
						errs <- fmt.Errorf("element %d = %d", e, v.I)
						return
					}
				case 2:
					chunks := []int{rng.Intn(nchunks), rng.Intn(nchunks), rng.Intn(nchunks)}
					if err := p.PrefetchChunks(chunks); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.PeakBytes > 3*chunkBytes {
		t.Fatalf("peak cached bytes %d exceed budget %d under stress", st.PeakBytes, 3*chunkBytes)
	}
}
