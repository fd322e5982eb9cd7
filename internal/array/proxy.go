package array

import (
	"context"
	"fmt"
	"sync"

	"scisparql/internal/spd"
)

// ChunkSource is the narrow interface an array proxy needs from a
// storage back-end. It is a subset of the Array Storage Extensibility
// Interface (§6.1): the back-end streams raw chunk payloads for the
// requested chunk-number runs, and may optionally evaluate whole-array
// aggregates server-side (the AAPR optimization).
type ChunkSource interface {
	// ReadChunksCtx fetches the chunks identified by the runs and hands
	// each to emit as it arrives — typically from a bounded pool of
	// fetch workers — with its raw little-endian element payload; the
	// final chunk of an array may be short. emit is called serially on
	// the goroutine that called ReadChunksCtx; an emit error or a ctx
	// cancellation stops the in-flight workers. Proxies overlap the
	// back-end's latency with computation this way. A payload passed to
	// emit is the caller's from then on; the source may reuse it only
	// once handed it back.
	ReadChunksCtx(ctx context.Context, arrayID int64, runs []spd.Run, emit func(chunkNo int, data []byte) error) error

	// AggregateWhole computes the aggregate state over all elements of
	// the array inside the back-end. ok is false when the back-end does
	// not support server-side aggregation, in which case the caller
	// falls back to fetching chunks.
	AggregateWhole(arrayID int64) (st *AggState, ok bool, err error)
}

// Proxy stands in for the elements of an externally stored array
// (dissertation §5.2, §6.1). Elements are fetched lazily in chunks of
// ChunkElems elements; fetched chunks live in a chunk cache — by
// default the process-wide memory-budgeted LRU shared by all proxies.
//
// A Proxy is safe for concurrent readers: cache hits share the cache
// lock briefly, and concurrent misses on the same chunk coalesce into
// a single back-end fetch (singleflight). A read pins the chunk it
// decodes, so no payload is recycled while a reader still holds it.
// Source, ArrayID, ChunkElems, CacheCap and Cache must be set before
// the proxy is shared.
type Proxy struct {
	Source     ChunkSource
	ArrayID    int64
	ChunkElems int

	// CacheCap, when positive, gives this proxy a private cache bounded
	// to that many chunks instead of the shared byte-budgeted cache —
	// the legacy per-proxy bound, kept for callers that need strict
	// per-array chunk counts.
	CacheCap int

	// Cache overrides the chunk cache used by this proxy. nil selects
	// the process-wide shared cache (or a private cache when CacheCap
	// is set).
	Cache *ChunkCache

	mu      sync.Mutex
	private *ChunkCache
}

// NewProxy creates a proxy for array arrayID on the given source with
// the given chunk size in elements.
func NewProxy(src ChunkSource, arrayID int64, chunkElems int) *Proxy {
	if chunkElems <= 0 {
		panic(fmt.Sprintf("array: invalid chunk size %d", chunkElems))
	}
	return &Proxy{Source: src, ArrayID: arrayID, ChunkElems: chunkElems}
}

// cacheRef resolves the chunk cache this proxy stores into.
func (p *Proxy) cacheRef() *ChunkCache {
	if p.Cache != nil {
		return p.Cache
	}
	if p.CacheCap > 0 {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.private == nil {
			p.private = newChunkCacheChunks(p.CacheCap)
		}
		return p.private
	}
	return sharedChunkCache
}

func (p *Proxy) key(chunkNo int) cacheKey {
	return cacheKey{src: p.Source, arrayID: p.ArrayID, chunkNo: chunkNo}
}

// CachedChunks reports how many of this array's chunks are currently
// cached.
func (p *Proxy) CachedChunks() int {
	return p.cacheRef().countFor(p.Source, p.ArrayID)
}

// DropCache discards this array's cached chunks.
func (p *Proxy) DropCache() {
	p.cacheRef().purge(p.Source, p.ArrayID)
}

func (p *Proxy) elementAt(lin int, etype ElemType) (Number, error) {
	chunkNo := lin / p.ChunkElems
	e, err := p.chunkCtx(context.Background(), chunkNo)
	if err != nil {
		return Number{}, err
	}
	defer p.cacheRef().unpin(e)
	off := (lin % p.ChunkElems) * ElemSize
	if off+ElemSize > len(e.data) {
		return Number{}, fmt.Errorf("array: element %d beyond end of chunk %d (len %d)", lin, chunkNo, len(e.data))
	}
	return DecodeElem(e.data[off:off+ElemSize], etype), nil
}

// chunkCtx returns the entry of one chunk, pinned: from the cache, by
// joining another reader's in-flight fetch, or by fetching it.
func (p *Proxy) chunkCtx(ctx context.Context, chunkNo int) (*cacheEntry, error) {
	e, fl, claimed := p.cacheRef().lookupOrClaim(p.key(chunkNo), true)
	if e != nil {
		return e, nil
	}
	defer fetchStatsFrom(ctx).timeWait()()
	if claimed {
		return p.readOneClaim(ctx, chunkNo, fl)
	}
	return p.awaitFlight(ctx, chunkNo, fl, true)
}

// readOneClaim fetches a single claimed chunk and completes its flight.
func (p *Proxy) readOneClaim(ctx context.Context, chunkNo int, fl *flight) (*cacheEntry, error) {
	p.readClaims(ctx, []int{chunkNo}, map[int]*flight{chunkNo: fl})
	if fl.err != nil {
		return nil, fl.err
	}
	return fl.entry, nil
}

// awaitFlight waits for another reader's fetch of chunkNo. If that
// reader fails — its query may simply have been cancelled — the wait
// retries by fetching the chunk under this reader's own context, so
// one query's failure cannot poison another's. With pin (see
// lookupOrClaim), an error leaves the caller holding nothing.
func (p *Proxy) awaitFlight(ctx context.Context, chunkNo int, fl *flight, pin bool) (*cacheEntry, error) {
	c := p.cacheRef()
	for {
		select {
		case <-fl.done:
		case <-ctx.Done():
			if pin {
				c.release(nil, fl)
			}
			return nil, ctx.Err()
		}
		if fl.err == nil {
			return fl.entry, nil
		}
		e, fl2, claimed := c.lookupOrClaim(p.key(chunkNo), pin)
		if e != nil {
			return e, nil
		}
		if claimed {
			return p.readOneClaim(ctx, chunkNo, fl2)
		}
		fl = fl2
	}
}

// readClaims fetches the claimed chunks (sorted ascending) in one
// streaming back-end interaction and
// completes every claim's flight: resolved with its payload as it
// arrives, or failed so that coalesced waiters never hang. The returned
// error is the back-end's; a chunk the back-end silently omitted fails
// only that chunk's flight.
func (p *Proxy) readClaims(ctx context.Context, claims []int, claimFl map[int]*flight) error {
	if len(claims) == 0 {
		return nil
	}
	if fs := fetchStatsFrom(ctx); fs != nil {
		fs.Fetched.Add(int64(len(claims)))
	}
	c := p.cacheRef()
	runs := spd.Detect(claims)
	resolved := make(map[int]bool, len(claims))
	// Whatever happens — error return, even a back-end panic — every
	// claim in this batch must complete, or waiters block forever.
	var finalErr error
	defer func() {
		for _, cn := range claims {
			if resolved[cn] {
				continue
			}
			err := finalErr
			if err == nil {
				err = fmt.Errorf("array: back-end did not return chunk %d of array %d", cn, p.ArrayID)
			}
			c.fail(p.key(cn), claimFl[cn], err)
		}
	}()
	emit := func(chunkNo int, data []byte) error {
		if fl, ok := claimFl[chunkNo]; ok && !resolved[chunkNo] {
			resolved[chunkNo] = true
			c.resolve(p.key(chunkNo), fl, data)
		}
		return nil
	}
	finalErr = p.Source.ReadChunksCtx(ctx, p.ArrayID, runs, emit)
	return finalErr
}

// fetchMissingCtx retrieves the listed chunk numbers (sorted,
// deduplicated) that are not already cached, detecting sequence
// patterns so the back-end receives compact run descriptions rather
// than per-chunk requests. Chunks another reader is already fetching
// are waited on rather than fetched again.
func (p *Proxy) fetchMissingCtx(ctx context.Context, chunkNos []int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c := p.cacheRef()
	var claims []int
	var claimFl map[int]*flight
	var waits map[int]*flight
	for _, cn := range chunkNos {
		e, fl, claimed := c.lookupOrClaim(p.key(cn), false)
		switch {
		case e != nil:
		case claimed:
			if claimFl == nil {
				claimFl = make(map[int]*flight)
			}
			claims = append(claims, cn)
			claimFl[cn] = fl
		default:
			if waits == nil {
				waits = make(map[int]*flight)
			}
			waits[cn] = fl
		}
	}
	if len(claims) == 0 && len(waits) == 0 {
		return nil
	}
	defer fetchStatsFrom(ctx).timeWait()()
	if err := p.readClaims(ctx, claims, claimFl); err != nil {
		return err
	}
	for cn, fl := range waits {
		if _, err := p.awaitFlight(ctx, cn, fl, false); err != nil {
			return err
		}
	}
	return nil
}

func (p *Proxy) aggregateWhole() (*AggState, bool, error) {
	return p.Source.AggregateWhole(p.ArrayID)
}

// streamWindowBytes bounds how much fetched-but-unconsumed payload one
// StreamChunks pipeline keeps in flight (per window; two windows are
// scheduled ahead).
const streamWindowBytes = 4 << 20

// streamWindows cuts the claimed chunks into fetch windows of roughly
// streamWindowBytes each, never splitting a detected run across
// windows — so the back-end sees the same compact run descriptions
// (and issues the same statements) as a non-streaming fetch.
func streamWindows(claims []int, chunkBytes int) [][]int {
	if len(claims) == 0 {
		return nil
	}
	perWindow := streamWindowBytes / chunkBytes
	if perWindow < 16 {
		perWindow = 16
	}
	if len(claims) <= perWindow {
		return [][]int{claims}
	}
	var windows [][]int
	var cur []int
	for _, r := range spd.Detect(claims) {
		cur = append(cur, r.Expand(nil)...)
		if len(cur) >= perWindow {
			windows = append(windows, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		windows = append(windows, cur)
	}
	return windows
}

// StreamChunks delivers the payloads of the given chunk numbers to f
// in ascending chunk order, fetching missing chunks through the
// back-end while earlier chunks are being consumed. Fetching runs in
// bounded windows pipelined two ahead of consumption, so memory stays
// bounded for scans larger than the chunk cache while back-end latency
// overlaps with the consumer's computation. Concurrent readers of the
// same chunks coalesce onto one fetch. Cancelling ctx stops the
// in-flight fetch workers; StreamChunks does not return until they
// have exited. The bytes passed to f are valid only until f returns.
func (p *Proxy) StreamChunks(ctx context.Context, chunkNos []int, f func(chunkNo int, data []byte) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	chunkNos = spd.Normalize(append([]int(nil), chunkNos...))
	if len(chunkNos) == 0 {
		return nil
	}
	c := p.cacheRef()
	type slot struct {
		e    *cacheEntry
		fl   *flight
		ours bool
	}
	slots := make(map[int]slot, len(chunkNos))
	var claims []int
	claimFl := make(map[int]*flight)
	for _, cn := range chunkNos {
		e, fl, claimed := c.lookupOrClaim(p.key(cn), true)
		slots[cn] = slot{e: e, fl: fl, ours: claimed}
		if claimed {
			claims = append(claims, cn)
			claimFl[cn] = fl
		}
	}

	windows := streamWindows(claims, p.ChunkElems*ElemSize)
	claimWin := make(map[int]int, len(claims))
	for w, win := range windows {
		for _, cn := range win {
			claimWin[cn] = w
		}
	}

	fctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	scheduled, next := 0, 0
	defer func() {
		cancel()
		wg.Wait()
		// A stop before the end must fail the claims of windows never
		// scheduled, or their waiters hang, and drop unconsumed holds.
		for _, win := range windows[scheduled:] {
			for _, cn := range win {
				c.fail(p.key(cn), claimFl[cn], fctx.Err())
			}
		}
		for _, cn := range chunkNos[next:] {
			c.release(slots[cn].e, slots[cn].fl)
		}
	}()
	schedule := func(upTo int) {
		for scheduled <= upTo && scheduled < len(windows) {
			win := windows[scheduled]
			scheduled++
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.readClaims(fctx, win, claimFl)
			}()
		}
	}
	schedule(1) // two windows in flight before consumption starts

	for i, cn := range chunkNos {
		s := slots[cn]
		next = i + 1 // from here on, this slot's hold is the loop's to end
		e := s.e
		if e == nil {
			if s.ours {
				// Keep the pipeline one window ahead of consumption.
				schedule(claimWin[cn] + 1)
			}
			stop := fetchStatsFrom(ctx).timeWait()
			var err error
			e, err = p.awaitFlight(ctx, cn, s.fl, true)
			stop()
			if err != nil {
				return err
			}
		}
		err := f(cn, e.data)
		c.unpin(e)
		if err != nil {
			return err
		}
	}
	return nil
}

// PrefetchChunks fetches the given chunk numbers (duplicates and
// already-cached chunks are skipped) in one batched back-end
// interaction. It is the entry point for resolving bags of array
// proxies accumulated across query solutions (§6.2.4).
func (p *Proxy) PrefetchChunks(chunks []int) error {
	return p.PrefetchChunksCtx(context.Background(), chunks)
}

// PrefetchChunksCtx is PrefetchChunks under a context: cancelling ctx
// stops the back-end's in-flight fetch workers.
func (p *Proxy) PrefetchChunksCtx(ctx context.Context, chunks []int) error {
	return p.fetchMissingCtx(ctx, spd.Normalize(append([]int(nil), chunks...)))
}

// Prefetch resolves, in one batched back-end interaction, every chunk
// the view will touch. It is the single-array form of the APR batching
// described in §6.2.4; bags of proxies accumulated across query
// solutions are batched at the engine level.
func (a *Array) Prefetch() error {
	return a.PrefetchCtx(context.Background())
}

// PrefetchCtx is Prefetch under a context.
func (a *Array) PrefetchCtx(ctx context.Context) error {
	p := a.Base.Proxy
	if p == nil {
		return nil
	}
	chunks := a.TouchedChunks(p.ChunkElems)
	return p.fetchMissingCtx(ctx, chunks)
}

// touchedFloor is the list length below which TouchedChunks never
// normalizes its list on the way.
const touchedFloor = 64

// TouchedChunks returns the sorted, deduplicated chunk numbers covered
// by the view, for the given chunk size in elements. An element in the
// chunk of the one before it adds nothing, so a row-major walk appends
// each chunk once; a walk that keeps changing chunks (a transposed view)
// normalizes the list in place whenever it reaches twice its distinct
// chunks, or the floor, so the list stays within twice the chunk count.
func (a *Array) TouchedChunks(chunkElems int) []int {
	var out []int
	limit := touchedFloor
	idx := make([]int, len(a.Shape))
	n := a.Count()
	for i := 0; i < n; i++ {
		lin := a.Offset
		for d, x := range idx {
			lin += x * a.Strides[d]
		}
		if c := lin / chunkElems; len(out) == 0 || out[len(out)-1] != c {
			if out = append(out, c); len(out) >= limit {
				out = spd.Normalize(out)
				limit = max(touchedFloor, 2*len(out))
			}
		}
		incIndex(idx, a.Shape)
	}
	return spd.Normalize(out)
}
