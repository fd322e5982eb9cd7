// Package server exposes an SSDM instance as a TCP service speaking
// the framed protocol of internal/protocol — SSDM's client-server
// deployment mode (dissertation §5.1), and the server side of the
// Matlab integration of chapter 7.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/metrics"
	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
)

// Server wraps an SSDM instance behind a listener. Each connection is
// served by its own goroutine and requests from different connections
// execute concurrently: SSDM's operation-level reader-writer lock
// classifies them, so read-only queries run in parallel while updates
// and loads are exclusive. Requests within one connection are handled
// in arrival order, preserving read-your-writes semantics for a client
// that pipelines an update before a query.
//
// Failure containment: every request runs in the request shell
// (core.Shell), under a context that shutdown and the request's
// deadline cancel, and a panic in it is trapped (stack logged, error
// response sent) without taking down the process.
type Server struct {
	DB *core.SSDM

	// Shell supplies Logger, SlowQuery and Metrics (set before Listen),
	// the drain switch and the panic trap.
	core.Shell

	mu       sync.Mutex // guards listener, closed and conns
	listener net.Listener
	wg       sync.WaitGroup
	closed   bool
	conns    map[net.Conn]struct{}

	instOnce    sync.Once
	inst        *instruments
	activeConns atomic.Int64
}

// ErrClosed is returned by Listen on a server that has been Closed.
var ErrClosed = errors.New("server: closed")

// New creates a server over an SSDM instance.
func New(db *core.SSDM) *Server {
	return &Server{DB: db, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0")
// and returns the bound address. Listening on a closed or already
// listening server is an error.
func (s *Server) Listen(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	if s.listener != nil {
		return "", errors.New("server: already listening")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	// Register the metric families eagerly so a scrape that lands
	// before the first request still sees them (at zero).
	s.instrumentSet()
	s.listener = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Shutdown gracefully stops the server: it stops accepting new
// connections, cancels the contexts of in-flight queries (they return
// cancellation errors to their clients), and lets connections finish
// writing the response in flight before closing them. It waits for
// the drain to complete or for ctx to expire, whichever comes first;
// on expiry remaining connections are force-closed and ctx's error is
// returned. The server cannot be reused afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	_ = s.beginShutdown() // a failed listener close leaves nothing to undo: drain anyway
	// Unblock connections idle in Read: an immediately expiring read
	// deadline fails the pending (or next) read while leaving writes —
	// the response being flushed to a draining client — unaffected.
	s.mu.Lock()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every acknowledged update has left the group-commit queue
		// (acknowledgement implies its fsync completed); a final flush
		// covers interval/none sync policies so a clean shutdown loses
		// nothing.
		return s.DB.FlushWAL()
	case <-ctx.Done():
		s.forceCloseConns()
		<-done
		_ = s.DB.FlushWAL()
		return ctx.Err()
	}
}

// Close stops the server immediately: the listener is closed,
// in-flight query contexts are cancelled, and every connection is
// force-closed. It is idempotent; the server cannot be reused
// afterwards.
func (s *Server) Close() error {
	err := s.beginShutdown()
	s.forceCloseConns()
	s.wg.Wait()
	return err
}

// beginShutdown marks the server closed and draining, cancels
// in-flight request contexts, and closes the listener, reporting the
// error of that close.
func (s *Server) beginShutdown() (err error) {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		err = s.listener.Close()
		s.listener = nil
	}
	s.mu.Unlock()
	s.Drain()
	return err
}

func (s *Server) forceCloseConns() {
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		s.activeConns.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.activeConns.Add(-1)
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serve(conn)
		}()
	}
}

// serve runs one connection's request loop: one frame in, one frame out
// (protocol.Wire).
func (s *Server) serve(conn net.Conn) {
	w := protocol.NewWire(conn, conn)
	for {
		var req protocol.Request
		if err := w.Read(&req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.Draining() {
				_ = w.Write(&protocol.Response{OK: false, Error: "bad request: " + err.Error(), Code: protocol.CodeError})
			}
			return
		}
		resp := s.handle(&req)
		err := w.Write(resp)
		// A result or scan table is pooled; the write is done with it.
		protocol.Release(resp.Rows)
		if err != nil {
			return
		}
		if s.Draining() {
			// Finish the request in flight, then drain: the client gets
			// its response and a clean EOF instead of a mid-frame cut.
			return
		}
	}
}

// instruments holds the server's registered metric handles.
type instruments struct {
	requests *metrics.CounterVec
	errors   *metrics.CounterVec
	latency  *metrics.Histogram
	rows     *metrics.Counter
	slow     *metrics.Counter
}

// instrumentSet registers (or re-resolves — registration is idempotent)
// the server's instruments and gauges on first use.
func (s *Server) instrumentSet() *instruments {
	s.instOnce.Do(func() {
		r := s.Registry()
		s.inst = &instruments{
			requests: r.CounterVec("ssdm_requests_total", "Requests handled, by operation.", "op"),
			errors:   r.CounterVec("ssdm_request_errors_total", "Failed requests, by error code.", "code"),
			latency:  r.Histogram("ssdm_query_duration_seconds", "Latency of query-class requests (query, execute, update, triples, explain, scan).", nil),
			rows:     r.Counter("ssdm_rows_returned_total", "Result rows returned to clients."),
			slow:     r.Counter("ssdm_slow_queries_total", "Query-class requests at or above the slow-query threshold."),
		}
		s.registerGauges(r)
	})
	return s.inst
}

// registerGauges publishes the instance's cache, dataset and storage
// state as scrape-time gauges. Every number the stats op reports too is
// read from its snapshot, stats.
func (s *Server) registerGauges(r *metrics.Registry) {
	r.GaugeFunc("ssdm_connections_active", "Open client connections.",
		func() float64 { return float64(s.activeConns.Load()) })
	r.GaugeFunc("ssdm_storage_read_calls", "Back-end chunk read calls since start (0 when resident-only).",
		func() float64 { return backendStat(s.DB, interface{ ReadCallCount() int64 }.ReadCallCount) })
	r.GaugeFunc("ssdm_storage_inflight_peak", "High-water mark of concurrent back-end reads.",
		func() float64 { return backendStat(s.DB, interface{ InflightPeak() int64 }.InflightPeak) })
	shardSum := func(st *protocol.Stats, f func(protocol.ShardInfo) int64) (n float64) {
		for _, c := range st.ShardBreakdown {
			n += float64(f(c))
		}
		return n
	}
	type stat = *protocol.Stats
	for _, g := range []struct {
		name, help string
		value      func(stat) float64
	}{
		{"ssdm_triples", "Triples in the default graph.", func(st stat) float64 { return float64(st.Triples) }},
		{"ssdm_query_cache_hits", "Compiled-query cache hits since start.", func(st stat) float64 { return float64(st.CacheHits) }},
		{"ssdm_query_cache_misses", "Compiled-query cache misses since start.", func(st stat) float64 { return float64(st.CacheMisses) }},
		{"ssdm_query_cache_entries", "Compiled queries resident in the cache.", func(st stat) float64 { return float64(st.CacheEntries) }},
		{"ssdm_chunk_cache_hits", "Chunk-cache hits since start.", func(st stat) float64 { return float64(st.ChunkCacheHits) }},
		{"ssdm_chunk_cache_misses", "Chunk-cache misses since start.", func(st stat) float64 { return float64(st.ChunkCacheMisses) }},
		{"ssdm_chunk_cache_coalesced", "Chunk fetches coalesced onto another in-flight fetch.", func(st stat) float64 { return float64(st.ChunkCacheCoalesced) }},
		{"ssdm_chunk_cache_evictions", "Chunk-cache evictions since start.", func(st stat) float64 { return float64(st.ChunkCacheEvictions) }},
		{"ssdm_chunk_cache_bytes", "Bytes resident in the chunk cache.", func(st stat) float64 { return float64(st.ChunkCacheBytes) }},
		{"ssdm_chunk_cache_peak_bytes", "Chunk-cache residency high-water mark.", func(st stat) float64 { return float64(st.ChunkCachePeakBytes) }},
		{"ssdm_chunk_cache_budget_bytes", "Configured chunk-cache byte budget.", func(st stat) float64 { return float64(st.ChunkCacheBudget) }},
		{"ssdm_dict_terms", "Terms interned in the dataset's dictionaries.", func(st stat) float64 { return float64(st.DictTerms) }},
		{"ssdm_dict_bytes", "Approximate bytes held by term dictionaries.", func(st stat) float64 { return float64(st.DictBytes) }},
		{"ssdm_dict_generation", "Dictionary/graph mutation generation counter.", func(st stat) float64 { return float64(st.DictGeneration) }},
		{"ssdm_vec_queries_total", "Query executions that used a vectorized plan.", func(st stat) float64 { return float64(st.VecQueries) }},
		{"ssdm_vec_batches_total", "Batches emitted by vectorized pipelines.", func(st stat) float64 { return float64(st.VecBatches) }},
		{"ssdm_vec_rows_total", "Rows emitted by vectorized pipelines.", func(st stat) float64 { return float64(st.VecRows) }},
		{"ssdm_vec_agg_queries_total", "Aggregations folded batch-natively over ID columns.", func(st stat) float64 { return float64(st.VecAggQueries) }},
		{"ssdm_vec_agg_groups_total", "Groups produced by batch-native aggregation.", func(st stat) float64 { return float64(st.VecAggGroups) }},
		{"ssdm_vec_sort_queries_total", "Vectorized ORDER BY sorts over ID-resident keys.", func(st stat) float64 { return float64(st.VecSortQueries) }},
		{"ssdm_vec_topk_queries_total", "Vectorized sorts that used the bounded top-K heap.", func(st stat) float64 { return float64(st.VecTopKQueries) }},
		{"ssdm_wal_appends_total", "WAL records appended (0 when running without a WAL).", func(st stat) float64 { return float64(st.WALAppends) }},
		{"ssdm_wal_appended_bytes_total", "WAL frame bytes appended.", func(st stat) float64 { return float64(st.WALAppendedBytes) }},
		{"ssdm_wal_syncs_total", "WAL fsyncs issued.", func(st stat) float64 { return float64(st.WALSyncs) }},
		{"ssdm_wal_commits_total", "WAL commit acknowledgements.", func(st stat) float64 { return float64(st.WALCommits) }},
		{"ssdm_wal_grouped_commits_total", "WAL commits that rode another commit's fsync (group commit).", func(st stat) float64 { return float64(st.WALGroupedCommits) }},
		{"ssdm_wal_segments", "Live WAL segment files.", func(st stat) float64 { return float64(st.WALSegments) }},
		{"ssdm_wal_tail_lsn", "Next WAL append position.", func(st stat) float64 { return float64(st.WALTailLSN) }},
		{"ssdm_wal_synced_lsn", "Everything below this LSN is durable.", func(st stat) float64 { return float64(st.WALSyncedLSN) }},
		{"ssdm_wal_recovery_seconds", "Time the last startup spent in checkpoint load and log replay.", func(st stat) float64 { return float64(st.WALRecoveryNS) / 1e9 }},
		{"ssdm_shard_topology", "Shards in the coordinator's topology (0 on single-node instances).", func(st stat) float64 { return float64(st.Shards) }},
		{"ssdm_shard_pushdown_queries_total", "Queries executed per-shard with coordinator-side partial merging.", func(st stat) float64 { return float64(st.ShardPushdown) }},
		{"ssdm_shard_gather_queries_total", "Queries answered by gathering shard triples to the coordinator.", func(st stat) float64 { return float64(st.ShardGather) }},
		{"ssdm_shard_scatters_total", "Scatter fan-outs issued by the coordinator.", func(st stat) float64 { return float64(st.ShardScatters) }},
		{"ssdm_shard_errors_total", "Per-shard request failures observed by the coordinator.", func(st stat) float64 { return float64(st.ShardErrors) }},
		{"ssdm_shard_calls_total", "Requests the coordinator sent to shards (all shards summed).",
			func(st stat) float64 { return shardSum(st, func(c protocol.ShardInfo) int64 { return c.Calls }) }},
		{"ssdm_shard_rows_total", "Rows and triples shards returned to the coordinator (all shards summed).",
			func(st stat) float64 { return shardSum(st, func(c protocol.ShardInfo) int64 { return c.Rows }) }},
	} {
		r.GaugeFunc(g.name, g.help, func() float64 { return g.value(s.stats()) })
	}
}

// backendStat reads an optional counter of the attached back-end: 0
// when it has none or keeps no such counter.
func backendStat[B any](db *core.SSDM, get func(B) int64) float64 {
	if b, ok := db.Backend().(B); ok {
		return float64(get(b))
	}
	return 0
}

// stats is the instance's counter snapshot: the stats op's answer, and
// what the /metrics gauges read.
func (s *Server) stats() *protocol.Stats {
	cs := s.DB.QueryCacheStats()
	cc := s.DB.ChunkCacheStats()
	dict := s.DB.DictStats()
	vec := s.DB.VecStats()
	wal := s.DB.WALStats()
	st := &protocol.Stats{
		CacheHits:    cs.Hits,
		CacheMisses:  cs.Misses,
		CacheEntries: cs.Entries,
		CacheEpoch:   cs.Epoch,
		Triples:      s.DB.Dataset.Default.Size(),

		ChunkCacheHits:      cc.Hits,
		ChunkCacheMisses:    cc.Misses,
		ChunkCacheCoalesced: cc.Coalesced,
		ChunkCacheEvictions: cc.Evictions,
		ChunkCacheEntries:   cc.Entries,
		ChunkCacheBytes:     cc.Bytes,
		ChunkCachePeakBytes: cc.PeakBytes,
		ChunkCacheBudget:    cc.Budget,

		DictTerms:      dict.Terms,
		DictBytes:      dict.Bytes,
		DictGeneration: dict.Generation,

		VecQueries:     vec.Queries,
		VecBatches:     vec.Batches,
		VecRows:        vec.Rows,
		VecAggQueries:  vec.AggQueries,
		VecAggGroups:   vec.AggGroups,
		VecSortQueries: vec.SortQueries,
		VecTopKQueries: vec.TopKQueries,

		WALEnabled:        wal.Enabled,
		WALAppends:        wal.Appends,
		WALAppendedBytes:  wal.AppendedBytes,
		WALSyncs:          wal.Syncs,
		WALCommits:        wal.Commits,
		WALGroupedCommits: wal.GroupedCommit,
		WALSegments:       wal.Segments,
		WALTailLSN:        wal.TailLSN,
		WALSyncedLSN:      wal.SyncedLSN,
		WALRecoveredRecs:  wal.RecoveredRecords,
		WALRecoveryNS:     wal.RecoveryNanos,
	}
	if ss, ok := s.DB.ShardStats(); ok {
		st.Shards = ss.Shards
		st.ShardPushdown = ss.PushdownQueries
		st.ShardGather = ss.GatherQueries
		st.ShardScatters = ss.Scatters
		st.ShardErrors = ss.Errors
		for _, c := range ss.PerShard {
			st.ShardBreakdown = append(st.ShardBreakdown, protocol.ShardInfo{
				Name: c.Name, Calls: c.Calls, Errors: c.Errors, Rows: c.Rows,
			})
		}
	}
	return st
}

// handle runs handleOp in the request shell and adds the server's
// observability: per-op request counters, error-code counters, and for
// query-class ops the latency histogram and slow-query log.
func (s *Server) handle(req *protocol.Request) *protocol.Response {
	in := s.instrumentSet()
	var resp *protocol.Response
	dur, err := s.Serve(nil, func(ctx context.Context) error {
		resp = s.handleOp(ctx, req)
		return nil
	})
	if err != nil {
		resp = fail(err)
	}

	in.requests.With(req.Op).Inc()
	if !resp.OK {
		in.errors.With(resp.Code).Inc()
	}
	in.rows.Add(int64(resp.NRows))
	if protocol.QueryClass(req.Op) {
		s.Observe(in.latency, in.slow, dur, func() (string, []any) {
			outcome := "ok"
			if !resp.OK {
				outcome = resp.Code
			}
			return queryText(req), []any{"op", req.Op, "rows", resp.NRows, "outcome", outcome}
		})
	}
	return resp
}

// handleOp executes one request against the SSDM instance, taking no
// server-level lock (concurrency control lives in core.SSDM).
func (s *Server) handleOp(ctx context.Context, req *protocol.Request) *protocol.Response {
	lim := engine.Limits{
		MaxResultRows: req.MaxRows,
		MaxBindings:   req.MaxBindings,
		Timeout:       time.Duration(req.TimeoutMS) * time.Millisecond,
	}
	if req.Op == protocol.OpTriples || req.Op == protocol.OpScan {
		// Neither runs through a query, which bounds itself.
		if lim = s.DB.FillLimits(lim); lim.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
			defer cancel()
		}
	}
	switch req.Op {
	case protocol.OpPing:
		return &protocol.Response{OK: true}
	case protocol.OpQuery:
		return encodeResults(s.DB.QueryLimits(ctx, req.Text, lim))
	case protocol.OpExecute:
		results, err := s.DB.ExecuteLimits(ctx, req.Text, lim)
		if err != nil {
			return fail(err)
		}
		if len(results) == 0 {
			return &protocol.Response{OK: true}
		}
		return encodeResults(results[len(results)-1], nil)
	case protocol.OpUpdate:
		n, err := s.DB.UpdateLimits(ctx, req.Text, lim)
		if err != nil {
			return fail(err)
		}
		return &protocol.Response{OK: true, Count: n}
	case protocol.OpLoadTurtle:
		if err := s.DB.LoadTurtle(req.Text, rdf.IRI(req.Graph)); err != nil {
			return fail(err)
		}
		return &protocol.Response{OK: true}
	case protocol.OpStoreArray:
		a, err := array.Unmarshal(req.Array)
		if err != nil {
			return fail(err)
		}
		id, err := s.DB.StoreArray(a)
		if err != nil {
			return fail(err)
		}
		return &protocol.Response{OK: true, ArrayID: id}
	case protocol.OpTriples:
		rows, err := protocol.DecodeRows(req.Rows)
		if err != nil {
			return fail(err)
		}
		n, err := s.DB.WriteTriples(ctx, protocol.OwnTerms(rows), req.Delete)
		if err != nil {
			return fail(err)
		}
		return &protocol.Response{OK: true, Count: n}
	case protocol.OpExplain:
		if !req.Analyze {
			plan, err := s.DB.Explain(req.Text)
			if err != nil {
				return fail(err)
			}
			return &protocol.Response{OK: true, Explain: plan}
		}
		res, tr, err := s.DB.QueryAnalyze(ctx, req.Text, lim)
		resp := encodeResults(res, err)
		if tr != nil {
			// The trace survives execution failure (timeout, budget):
			// it goes alongside the error so the client sees where the
			// time went.
			resp.Trace = encodeTrace(tr)
			resp.Explain = tr.String()
		}
		return resp
	case protocol.OpScan:
		return s.scan(ctx, req, lim)
	case protocol.OpStats:
		return &protocol.Response{OK: true, Stats: s.stats()}
	default:
		return &protocol.Response{OK: false, Error: "unknown op " + req.Op, Code: protocol.CodeError}
	}
}

// errNotLeaf refuses a scan on a coordinator, whose own graph is empty:
// "no triples" would be a wrong answer, not a small one.
var errNotLeaf = errors.New("scan: this server coordinates shards and holds no triples of its own; scan its leaf shards")

// scan answers OpScan straight from a snapshot of the default graph's
// indexes — no parser, query cache or engine — as one row table of the
// wildcard positions. It honours lim, filled from the instance's
// defaults, like a query does: ctx's deadline is polled per MatchIDs
// batch, and a match over the row cap is a resource_limit error, never
// a truncated answer.
func (s *Server) scan(ctx context.Context, req *protocol.Request, lim engine.Limits) *protocol.Response {
	if s.DB.Distributor() != nil {
		return fail(errNotLeaf)
	}
	pattern, err := scanPattern(req)
	if err != nil {
		return fail(err)
	}
	g := s.DB.Dataset.Default.Snapshot()
	var (
		ids   [3]rdf.ID
		open  []int  // the wildcard positions, the answer's columns
		known = true // false: a ground term this graph never saw, so nothing matches
	)
	for i, t := range pattern {
		if t == nil {
			open = append(open, i)
			continue
		}
		var ok bool
		ids[i], ok = g.Lookup(t)
		known = known && ok
	}
	term := func(id rdf.ID) (rdf.ID, rdf.Term, error) { return id, g.TermOf(id), nil }
	var overrun error
	blob, n, err := protocol.AppendIDRows(nil, len(open), term, func(yield func(row []rdf.ID) bool) {
		if !known {
			return
		}
		rows, row := 0, make([]rdf.ID, len(open))
		g.MatchIDs(ctx, ids[0], ids[1], ids[2], 0, func(s, p, o []rdf.ID) bool {
			if rows += len(s); lim.MaxResultRows > 0 && rows > lim.MaxResultRows {
				overrun = fmt.Errorf("%w: scan exceeds %d triples", engine.ErrResourceLimit, lim.MaxResultRows)
				return false
			}
			cols := [3][]rdf.ID{s, p, o}
			for i := range s {
				for c, at := range open {
					row[c] = cols[at][i]
				}
				if !yield(row) {
					return false
				}
			}
			return true
		})
	})
	if err == nil {
		err = overrun
	}
	if err == nil {
		err = engine.ContextErr(ctx)
	}
	if err != nil {
		protocol.Release(blob) // an overrun or a timeout leaves a partial table behind
		return fail(err)
	}
	return &protocol.Response{OK: true, Rows: blob, NRows: n}
}

// scanPattern decodes OpScan's pattern: one row of three cells, an
// unbound cell a wildcard.
func scanPattern(req *protocol.Request) ([]rdf.Term, error) {
	rows, err := protocol.DecodeRows(req.Rows)
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	if len(rows) != 1 || len(rows[0]) != 3 {
		return nil, fmt.Errorf("scan: the pattern is %d rows, want one row of 3 cells", len(rows))
	}
	return rows[0], nil
}

// queryText is what the slow-query log prints for a request: its text,
// or for a scan (which has none) its pattern, if it decodes.
func queryText(req *protocol.Request) string {
	if req.Op != protocol.OpScan {
		return req.Text
	}
	pattern, _ := scanPattern(req)
	text := "scan"
	for _, t := range pattern {
		if t != nil {
			text += " " + t.String()
		} else {
			text += " ?"
		}
	}
	return text
}

// encodeTrace converts an engine execution trace to its wire form.
func encodeTrace(tr *engine.Trace) *protocol.TraceInfo {
	if tr == nil {
		return nil
	}
	return &protocol.TraceInfo{
		ParseNS:      tr.ParseNanos,
		PlanCached:   tr.PlanCached,
		TotalNS:      tr.TotalNanos,
		WhereNS:      tr.WhereNanos,
		AggNS:        tr.AggNanos,
		ProjNS:       tr.ProjNanos,
		SortNS:       tr.SortNanos,
		Rows:         tr.Rows,
		Bindings:     tr.Bindings,
		MatchCalls:   tr.MatchCalls,
		Matched:      tr.Matched,
		Vectorized:   tr.Vectorized,
		VecBatches:   tr.VecBatches,
		VecRows:      tr.VecRows,
		VecAggGroups: tr.VecAggGroups,
		VecSortRows:  tr.VecSortRows,
		VecSortTopK:  tr.VecSortTopK,
		ChunkFetches: tr.ChunkFetches,
		ChunkWaitNS:  tr.ChunkWaitNanos,
		ShardMode:    tr.ShardMode,
		Shards:       tr.Shards,
		ShardCalls:   tr.ShardCalls,
		ShardRows:    tr.ShardRows,
		Error:        tr.Error,
		Plan:         tr.Plan,
	}
}

// fail encodes a failed request: the code and client-safe message of
// core.WireError.
func fail(err error) *protocol.Response {
	code, msg := core.WireError(err)
	return &protocol.Response{OK: false, Error: msg, Code: code}
}

// encodeResults converts a query's outcome to its wire form: one row
// table holding every row, or an error response holding none.
func encodeResults(res *engine.Results, err error) *protocol.Response {
	if err != nil {
		return fail(err)
	}
	out := &protocol.Response{OK: true, Vars: res.Vars, Bool: res.Bool, NRows: len(res.Rows)}
	if len(res.Rows) > 0 {
		rows, err := protocol.EncodeRows(res.Rows, len(res.Vars))
		if err != nil {
			return fail(err)
		}
		out.Rows = rows
	}
	if res.Graph != nil {
		out.Count = res.Graph.Size()
	}
	return out
}
