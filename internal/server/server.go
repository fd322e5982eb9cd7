// Package server exposes an SSDM instance as a TCP service speaking
// the JSON protocol of internal/protocol — SSDM's client-server
// deployment mode (dissertation §5.1), and the server side of the
// Matlab integration of chapter 7.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

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
// Failure containment: every request executes under a context derived
// from the server's base context plus any per-request deadline, so
// shutdown and timeouts cancel in-flight queries cooperatively; panics
// inside request handling are trapped per request (stack logged, error
// response sent) and can never take down the process.
type Server struct {
	DB *core.SSDM

	// Logger receives structured server output — the slow-query log and
	// the panic trap. Nil uses slog.Default(). Set before Listen.
	Logger *slog.Logger

	// SlowQuery is the duration at or above which a query-class request
	// is logged through Logger with its text, duration, row count and
	// guard outcome. Zero disables the slow-query log. Set before
	// Listen.
	SlowQuery time.Duration

	// Metrics is the registry the server instruments (request counts,
	// latency histogram, error codes, cache and storage gauges). Nil
	// uses metrics.Default(). Set before Listen.
	Metrics *metrics.Registry

	mu       sync.Mutex // guards listener, closed and conns
	listener net.Listener
	wg       sync.WaitGroup
	closed   bool
	conns    map[net.Conn]struct{}

	instOnce    sync.Once
	inst        *instruments
	activeConns atomic.Int64

	// baseCtx parents every request context; baseCancel aborts all
	// in-flight work on shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// draining is set when Shutdown/Close begins: connections finish
	// the request in flight, then close instead of reading the next.
	draining atomic.Bool
}

// ErrClosed is returned by Listen on a server that has been Closed.
var ErrClosed = errors.New("server: closed")

// New creates a server over an SSDM instance.
func New(db *core.SSDM) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{DB: db, conns: make(map[net.Conn]struct{}), baseCtx: ctx, baseCancel: cancel}
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
	ln := s.beginShutdown()
	if ln != nil {
		_ = ln.Close()
	}
	// Unblock connections idle in Decode: an immediately expiring read
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
	ln := s.beginShutdown()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.forceCloseConns()
	s.wg.Wait()
	return err
}

// beginShutdown marks the server closed and draining, cancels
// in-flight request contexts, and detaches the listener (returned for
// the caller to close outside the lock).
func (s *Server) beginShutdown() net.Listener {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	s.listener = nil
	s.mu.Unlock()
	s.draining.Store(true)
	s.baseCancel()
	return ln
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

// serve runs one connection's request loop. Responses go through a
// buffered writer flushed once per response, so a row batch costs one
// syscall instead of one per JSON encoder write.
func (s *Server) serve(conn net.Conn) {
	dec := json.NewDecoder(bufio.NewReader(conn))
	bw := bufio.NewWriter(conn)
	enc := json.NewEncoder(bw)
	for {
		var req protocol.Request
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.draining.Load() {
				_ = enc.Encode(protocol.Response{OK: false, Error: "bad request: " + err.Error(), Code: protocol.CodeError})
				_ = bw.Flush()
			}
			return
		}
		resp := s.handle(&req)
		err := enc.Encode(resp)
		// A scan's batch and a result table are pooled; enc has copied them.
		protocol.Release(resp.Triples)
		protocol.Release(resp.Rows)
		if err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if s.draining.Load() {
			// Finish the request in flight, then drain: the client gets
			// its response and a clean EOF instead of a mid-frame cut.
			return
		}
	}
}

// logger returns the configured structured logger (slog.Default when
// unset).
func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}

// registry returns the configured metrics registry (the process default
// when unset).
func (s *Server) registry() *metrics.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return metrics.Default()
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
		r := s.registry()
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
// state as scrape-time gauges.
func (s *Server) registerGauges(r *metrics.Registry) {
	db := s.DB
	r.GaugeFunc("ssdm_connections_active", "Open client connections.",
		func() float64 { return float64(s.activeConns.Load()) })
	r.GaugeFunc("ssdm_triples", "Triples in the default graph.",
		func() float64 { return float64(db.Dataset.Default.Size()) })
	r.GaugeFunc("ssdm_query_cache_hits", "Compiled-query cache hits since start.",
		func() float64 { return float64(db.QueryCacheStats().Hits) })
	r.GaugeFunc("ssdm_query_cache_misses", "Compiled-query cache misses since start.",
		func() float64 { return float64(db.QueryCacheStats().Misses) })
	r.GaugeFunc("ssdm_query_cache_entries", "Compiled queries resident in the cache.",
		func() float64 { return float64(db.QueryCacheStats().Entries) })
	r.GaugeFunc("ssdm_chunk_cache_hits", "Chunk-cache hits since start.",
		func() float64 { return float64(db.ChunkCacheStats().Hits) })
	r.GaugeFunc("ssdm_chunk_cache_misses", "Chunk-cache misses since start.",
		func() float64 { return float64(db.ChunkCacheStats().Misses) })
	r.GaugeFunc("ssdm_chunk_cache_coalesced", "Chunk fetches coalesced onto another in-flight fetch.",
		func() float64 { return float64(db.ChunkCacheStats().Coalesced) })
	r.GaugeFunc("ssdm_chunk_cache_evictions", "Chunk-cache evictions since start.",
		func() float64 { return float64(db.ChunkCacheStats().Evictions) })
	r.GaugeFunc("ssdm_chunk_cache_bytes", "Bytes resident in the chunk cache.",
		func() float64 { return float64(db.ChunkCacheStats().Bytes) })
	r.GaugeFunc("ssdm_chunk_cache_peak_bytes", "Chunk-cache residency high-water mark.",
		func() float64 { return float64(db.ChunkCacheStats().PeakBytes) })
	r.GaugeFunc("ssdm_chunk_cache_budget_bytes", "Configured chunk-cache byte budget.",
		func() float64 { return float64(db.ChunkCacheStats().Budget) })
	r.GaugeFunc("ssdm_dict_terms", "Terms interned in the dataset's dictionaries.",
		func() float64 { return float64(db.DictStats().Terms) })
	r.GaugeFunc("ssdm_dict_bytes", "Approximate bytes held by term dictionaries.",
		func() float64 { return float64(db.DictStats().Bytes) })
	r.GaugeFunc("ssdm_dict_generation", "Dictionary/graph mutation generation counter.",
		func() float64 { return float64(db.DictStats().Generation) })
	r.GaugeFunc("ssdm_vec_queries_total", "Query executions that used a vectorized plan.",
		func() float64 { return float64(db.VecStats().Queries) })
	r.GaugeFunc("ssdm_vec_batches_total", "Batches emitted by vectorized pipelines.",
		func() float64 { return float64(db.VecStats().Batches) })
	r.GaugeFunc("ssdm_vec_rows_total", "Rows emitted by vectorized pipelines.",
		func() float64 { return float64(db.VecStats().Rows) })
	r.GaugeFunc("ssdm_vec_agg_queries_total", "Aggregations folded batch-natively over ID columns.",
		func() float64 { return float64(db.VecStats().AggQueries) })
	r.GaugeFunc("ssdm_vec_agg_groups_total", "Groups produced by batch-native aggregation.",
		func() float64 { return float64(db.VecStats().AggGroups) })
	r.GaugeFunc("ssdm_vec_sort_queries_total", "Vectorized ORDER BY sorts over ID-resident keys.",
		func() float64 { return float64(db.VecStats().SortQueries) })
	r.GaugeFunc("ssdm_vec_topk_queries_total", "Vectorized sorts that used the bounded top-K heap.",
		func() float64 { return float64(db.VecStats().TopKQueries) })
	r.GaugeFunc("ssdm_wal_appends_total", "WAL records appended (0 when running without a WAL).",
		func() float64 { return float64(db.WALStats().Appends) })
	r.GaugeFunc("ssdm_wal_appended_bytes_total", "WAL frame bytes appended.",
		func() float64 { return float64(db.WALStats().AppendedBytes) })
	r.GaugeFunc("ssdm_wal_syncs_total", "WAL fsyncs issued.",
		func() float64 { return float64(db.WALStats().Syncs) })
	r.GaugeFunc("ssdm_wal_commits_total", "WAL commit acknowledgements.",
		func() float64 { return float64(db.WALStats().Commits) })
	r.GaugeFunc("ssdm_wal_grouped_commits_total", "WAL commits that rode another commit's fsync (group commit).",
		func() float64 { return float64(db.WALStats().GroupedCommit) })
	r.GaugeFunc("ssdm_wal_segments", "Live WAL segment files.",
		func() float64 { return float64(db.WALStats().Segments) })
	r.GaugeFunc("ssdm_wal_tail_lsn", "Next WAL append position.",
		func() float64 { return float64(db.WALStats().TailLSN) })
	r.GaugeFunc("ssdm_wal_synced_lsn", "Everything below this LSN is durable.",
		func() float64 { return float64(db.WALStats().SyncedLSN) })
	r.GaugeFunc("ssdm_wal_recovery_seconds", "Time the last startup spent in checkpoint load and log replay.",
		func() float64 { return float64(db.WALStats().RecoveryNanos) / 1e9 })
	r.GaugeFunc("ssdm_storage_read_calls", "Back-end chunk read calls since start (0 when resident-only).",
		func() float64 {
			if b, ok := db.Backend().(interface{ ReadCallCount() int64 }); ok {
				return float64(b.ReadCallCount())
			}
			return 0
		})
	r.GaugeFunc("ssdm_storage_inflight_peak", "High-water mark of concurrent back-end reads.",
		func() float64 {
			if b, ok := db.Backend().(interface{ InflightPeak() int64 }); ok {
				return float64(b.InflightPeak())
			}
			return 0
		})
	shardStat := func(f func(core.ShardStats) float64) func() float64 {
		return func() float64 {
			if ss, ok := db.ShardStats(); ok {
				return f(ss)
			}
			return 0
		}
	}
	r.GaugeFunc("ssdm_shard_topology", "Shards in the coordinator's topology (0 on single-node instances).",
		shardStat(func(ss core.ShardStats) float64 { return float64(ss.Shards) }))
	r.GaugeFunc("ssdm_shard_pushdown_queries_total", "Queries executed per-shard with coordinator-side partial merging.",
		shardStat(func(ss core.ShardStats) float64 { return float64(ss.PushdownQueries) }))
	r.GaugeFunc("ssdm_shard_gather_queries_total", "Queries answered by gathering shard triples to the coordinator.",
		shardStat(func(ss core.ShardStats) float64 { return float64(ss.GatherQueries) }))
	r.GaugeFunc("ssdm_shard_scatters_total", "Scatter fan-outs issued by the coordinator.",
		shardStat(func(ss core.ShardStats) float64 { return float64(ss.Scatters) }))
	r.GaugeFunc("ssdm_shard_errors_total", "Per-shard request failures observed by the coordinator.",
		shardStat(func(ss core.ShardStats) float64 { return float64(ss.Errors) }))
	r.GaugeFunc("ssdm_shard_calls_total", "Requests the coordinator sent to shards (all shards summed).",
		shardStat(func(ss core.ShardStats) float64 {
			var n int64
			for _, c := range ss.PerShard {
				n += c.Calls
			}
			return float64(n)
		}))
	r.GaugeFunc("ssdm_shard_rows_total", "Rows and triples shards returned to the coordinator (all shards summed).",
		shardStat(func(ss core.ShardStats) float64 {
			var n int64
			for _, c := range ss.PerShard {
				n += c.Rows
			}
			return float64(n)
		}))
}

// queryClass reports whether an op runs queries/updates — the requests
// the latency histogram and slow-query log cover.
func queryClass(op string) bool {
	switch op {
	case protocol.OpQuery, protocol.OpExecute, protocol.OpUpdate, protocol.OpTriples, protocol.OpExplain, protocol.OpScan:
		return true
	}
	return false
}

// handle wraps handleOp with observability: per-op request counters,
// the query latency histogram, error-code counters, and the slow-query
// log.
func (s *Server) handle(req *protocol.Request) *protocol.Response {
	in := s.instrumentSet()
	start := time.Now()
	resp := s.handleOp(req)
	dur := time.Since(start)

	in.requests.With(req.Op).Inc()
	if !resp.OK {
		in.errors.With(resp.Code).Inc()
	}
	rows := resp.NRows
	if req.Op == protocol.OpScan {
		rows = resp.Count // a scan's rows are the triples in its batch
	}
	in.rows.Add(int64(rows))
	if queryClass(req.Op) {
		in.latency.Observe(dur.Seconds())
		if s.SlowQuery > 0 && dur >= s.SlowQuery {
			in.slow.Inc()
			outcome := "ok"
			if !resp.OK {
				outcome = resp.Code
			}
			s.logger().Warn("slow query",
				"op", req.Op,
				"duration", dur.String(),
				"rows", rows,
				"outcome", outcome,
				"query", metrics.TruncateQuery(queryText(req)))
		}
	}
	return resp
}

// handleOp executes one request against the SSDM instance. It takes no
// server-level lock: concurrency control lives in core.SSDM, whose
// reader-writer lock lets queries from many connections run in
// parallel. A panic while handling becomes an error response with the
// stack logged — one hostile or buggy request never kills the server.
func (s *Server) handleOp(req *protocol.Request) (resp *protocol.Response) {
	defer func() {
		if r := recover(); r != nil {
			s.logger().Error("panic while handling request",
				"op", req.Op,
				"panic", fmt.Sprint(r),
				"stack", string(debug.Stack()))
			resp = &protocol.Response{
				OK:    false,
				Error: fmt.Sprintf("internal error handling %s: %v", req.Op, r),
				Code:  protocol.CodeInternal,
			}
		}
	}()
	ctx := s.baseCtx
	if err := ctx.Err(); err != nil {
		return &protocol.Response{OK: false, Error: "server shutting down", Code: protocol.CodeShutdown}
	}
	lim := engine.Limits{
		MaxResultRows: req.MaxRows,
		MaxBindings:   req.MaxBindings,
		Timeout:       time.Duration(req.TimeoutMS) * time.Millisecond,
	}
	switch req.Op {
	case protocol.OpPing:
		return &protocol.Response{OK: true}
	case protocol.OpQuery:
		res, err := s.DB.QueryLimits(ctx, req.Text, lim)
		if err != nil {
			return fail(err)
		}
		return encodeResults(res)
	case protocol.OpExecute:
		results, err := s.DB.ExecuteLimits(ctx, req.Text, lim)
		if err != nil {
			return fail(err)
		}
		if len(results) == 0 {
			return &protocol.Response{OK: true}
		}
		return encodeResults(results[len(results)-1])
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
		a, err := protocol.DecodeArray(req.Array)
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
		if lim = s.DB.FillLimits(lim); lim.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
			defer cancel()
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
		if err != nil {
			// The trace survives execution failure (timeout, budget):
			// return it alongside the error so the client sees where the
			// time went.
			resp := fail(err)
			if tr != nil {
				resp.Trace = encodeTrace(tr)
				resp.Explain = tr.String()
			}
			return resp
		}
		resp := encodeResults(res)
		resp.Trace = encodeTrace(tr)
		resp.Explain = tr.String()
		return resp
	case protocol.OpScan:
		return s.scan(ctx, req, lim)
	case protocol.OpStats:
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
		return &protocol.Response{OK: true, Stats: st}
	default:
		return &protocol.Response{OK: false, Error: "unknown op " + req.Op, Code: protocol.CodeError}
	}
}

// errNotLeaf refuses a scan on a coordinator, whose own graph is empty:
// "no triples" would be a wrong answer, not a small one.
var errNotLeaf = errors.New("scan: this server coordinates shards and holds no triples of its own; scan its leaf shards")

// scan answers OpScan straight from a snapshot of the default graph's
// indexes — no parser, query cache or engine — as one dictionary-coded
// batch. It honours the request's guards like a query does: the
// deadline is polled per MatchIDs batch, and a batch over the row cap
// is a resource_limit error, never a truncated answer.
func (s *Server) scan(ctx context.Context, req *protocol.Request, lim engine.Limits) *protocol.Response {
	if s.DB.Distributor() != nil {
		return fail(errNotLeaf)
	}
	pattern, err := scanPattern(req)
	if err != nil {
		return fail(err)
	}
	lim = s.DB.FillLimits(lim)
	if lim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
		defer cancel()
	}
	g := s.DB.Dataset.Default.Snapshot()
	var (
		ids   [3]rdf.ID
		wild  [3]bool
		known = true // false: a ground term this graph never saw, so nothing matches
	)
	for i, t := range pattern {
		if wild[i] = t == nil; wild[i] {
			continue
		}
		var ok bool
		ids[i], ok = g.Lookup(t)
		known = known && ok
	}
	var overrun error
	blob, n, err := protocol.EncodeTriples(g, wild, func(yield func(s, p, o []rdf.ID) bool) {
		if !known {
			return
		}
		rows := 0
		g.MatchIDs(ctx, ids[0], ids[1], ids[2], 0, func(s, p, o []rdf.ID) bool {
			if rows += len(s); lim.MaxResultRows > 0 && rows > lim.MaxResultRows {
				overrun = fmt.Errorf("%w: scan exceeds %d triples", engine.ErrResourceLimit, lim.MaxResultRows)
				return false
			}
			return yield(s, p, o)
		})
	})
	if err == nil {
		err = overrun
	}
	if err == nil {
		err = engine.ContextErr(ctx)
	}
	if err != nil {
		protocol.Release(blob) // an overrun or a timeout leaves a partial batch behind
		return fail(err)
	}
	return &protocol.Response{OK: true, Triples: blob, Count: n}
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

func fail(err error) *protocol.Response {
	return &protocol.Response{OK: false, Error: err.Error(), Code: errorCode(err)}
}

// errorCode maps the engine's typed errors to wire error codes so
// clients can distinguish "your query timed out" from "your query is
// malformed" without parsing message text.
func errorCode(err error) string {
	switch {
	case errors.Is(err, engine.ErrQueryTimeout) || errors.Is(err, context.DeadlineExceeded):
		return protocol.CodeTimeout
	case errors.Is(err, engine.ErrResourceLimit):
		return protocol.CodeResourceLimit
	case errors.Is(err, engine.ErrQueryCancelled) || errors.Is(err, context.Canceled):
		return protocol.CodeCancelled
	case errors.Is(err, engine.ErrInternal):
		return protocol.CodeInternal
	case errors.Is(err, core.ErrDurability):
		return protocol.CodeDurability
	case errors.Is(err, core.ErrShardUnavailable):
		return protocol.CodeShardUnavailable
	default:
		return protocol.CodeError
	}
}

// encodeResults converts a solution table to its wire form: one row
// table holding every row, or an error response holding none.
func encodeResults(res *engine.Results) *protocol.Response {
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
