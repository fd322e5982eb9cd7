package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"
	"unsafe"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/rdf"
)

// metricValue is one reported number. Value is nil where the metric is
// not defined on the workload. Timings carry the p95 that pairs with
// the median and the sample count behind both.
type metricValue struct {
	Value      *float64 `json:"value"`
	Unit       string   `json:"unit"`
	P95        *float64 `json:"p95,omitempty"`
	N          int      `json:"n,omitempty"`
	Unresolved bool     `json:"unresolved,omitempty"`
}

// report is one run: what -out appends and -compare reads.
type report struct {
	Meta      meta                   `json:"meta"`
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Layers    []layerRow             `json:"layers,omitempty"`
	Templates []templateStat         `json:"templates"`
}

// templateStat is one query shape's share of the untraced window: the
// per-template medians geomean_ms is the geometric mean of.
type templateStat struct {
	Name  string  `json:"name"`
	N     int     `json:"n"`
	P50MS float64 `json:"p50_ms"`
}

func templateStats(e *env, ph *phase) []templateStat {
	by := make([][]float64, len(e.seq.Templates))
	for _, s := range ph.reads {
		if s.ok {
			by[s.tmpl] = append(by[s.tmpl], ms(s.lat))
		}
	}
	var out []templateStat
	for i, v := range by {
		if len(v) > 0 {
			out = append(out, templateStat{e.seq.Templates[i].Name, len(v), median(v)})
		}
	}
	return out
}

func num(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// counters is a snapshot of every exported counter the window deltas
// are taken from.
type counters struct {
	at    time.Time
	mem   runtime.MemStats
	qc    core.CacheStats
	cc    array.ChunkCacheStats
	wal   core.WALStats
	shard core.ShardStats
	reads int64 // file store read calls
	bytes int64 // file store bytes read
	user  int64 // bytes of acknowledged update texts
}

func (r *runner) snapshot() counters {
	e := r.e
	c := counters{at: time.Now(), qc: e.db.QueryCacheStats(), cc: e.db.ChunkCacheStats(), wal: e.db.WALStats(), user: r.writeBytes}
	c.shard, _ = e.db.ShardStats()
	if e.store != nil {
		c.reads, c.bytes = e.store.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// run executes one workload once and returns its report. A run with an
// incorrect answer returns the report (Correct false) and an error
// naming the offending text.
func run(cfg *config, log io.Writer) (*report, error) {
	e, took, err := setUp(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	t0 := time.Now()
	if err := e.buildOracles(); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "oracles: %.3fs; load %.0f triples/s\n", time.Since(t0).Seconds(), e.loadRate)
	fmt.Fprintf(log, "%s: set up in %.3fs, %d ops over %d distinct texts, ops_sha256 %s\n",
		e.name, took.Seconds(), len(e.seq.Ops), len(e.seq.Texts), e.sha[:12])

	ctx := context.Background()
	r := newRunner(e)
	rep := &report{Meta: metaOf(cfg, e), Workload: e.name, Traced: cfg.Trace,
		EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}

	if _, err := r.closedLoop(ctx, cfg.Warmup); err != nil {
		return nil, err
	}

	// The untraced window every end-to-end metric comes from. A traced
	// run keeps a half-length one as the reference its overhead is
	// measured against.
	window := cfg.Window
	if cfg.Trace {
		window /= 2
	}
	runtime.GC()
	before := r.snapshot()
	ph, err := r.closedLoop(ctx, window)
	if err != nil {
		return nil, err
	}
	after := r.snapshot()
	// Twice: the first collection only moves sync.Pool contents to the
	// victim cache, and pooled buffers are not what live_heap_mb is for.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	// The window's samples are the harness's, and their number follows
	// the host's speed: take them out of the program's heap.
	samples := uint64(cap(ph.reads)+cap(ph.writes)) * uint64(unsafe.Sizeof(sample{}))
	e2e := endToEnd(e, ph, before, after, took.Seconds(), float64(live.HeapAlloc-samples)/(1<<20))
	rep.Templates = templateStats(e, ph)
	for _, t := range rep.Templates {
		fmt.Fprintf(log, "  %-28s n=%-6d p50 %.3f ms\n", t.Name, t.N, t.P50MS)
	}

	var (
		tr     *tracer
		traced *phase
	)
	if cfg.Trace {
		tr = newTracer(e)
		if e.name == wlMixedRW {
			if r.kit, err = newProbeKit(e); err != nil {
				return nil, err
			}
		}
		r.tr = tr
		if traced, err = r.closedLoop(ctx, cfg.Window); err != nil {
			return nil, err
		}
		r.tr = nil
	}

	var open *phase
	if e.name == wlMetaMix && cfg.Open > 0 {
		open = r.openLoop(ctx, cfg.Scale.OpenRate, cfg.Open)
		lateRatio := float64(open.late) / float64(len(open.reads))
		t := timingOf(open.reads, func(sample) bool { return true })
		// A generator that could not keep its own schedule measured
		// itself, not the server.
		unresolved := lateRatio > 0.01
		e2e["open_p50_ms"] = metricValue{Value: num(t.P50), N: t.N, Unresolved: unresolved}
		e2e["open_p95_ms"] = metricValue{Value: num(t.P95), N: t.N, Unresolved: unresolved}
		rep.PerLayer["gen.late_ratio"] = metricValue{Value: num(lateRatio), N: len(open.reads)}
		fmt.Fprintf(log, "open loop: %d requests at %d/s, %.2f%% sent late\n", len(open.reads), cfg.Scale.OpenRate, lateRatio*100)
	}

	var dur durability
	if e.name == wlMixedRW {
		if dur, err = r.checkDurability(ctx); err != nil {
			r.fail(err)
		}
	}

	rep.Attempted, rep.Failed = r.attempted.Load(), r.failed.Load()
	rep.Correct = rep.Failed == 0
	e2e["failed_ratio"] = metricValue{Value: num(float64(rep.Failed) / float64(rep.Attempted)), N: int(rep.Attempted)}
	for _, m := range endToEndSpecs {
		v := e2e[m.Name] // absent = null: not defined on this workload
		v.Unit = m.Unit
		rep.EndToEnd[m.Name] = v
	}

	if cfg.Trace {
		if err := layerMetrics(ctx, rep, r, tr, ph, traced, before, after, dur); err != nil {
			return nil, err
		}
		rep.Layers = layerTable(tr.spans)
		path := filepath.Join(cfg.WorkDir, "trace-"+e.name+".json")
		if err := tr.writeSpans(path, rep.Layers); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%d spans written to %s\n", len(tr.spans), path)
		printLayerTable(log, rep.Layers)
	}

	switch {
	case r.mismatch != nil:
		return rep, r.mismatch
	case r.firstErr != nil:
		return rep, fmt.Errorf("%d of %d ops failed, first: %w", rep.Failed, rep.Attempted, r.firstErr)
	}
	return rep, nil
}

// endToEnd computes the end-to-end metrics of one untraced window.
func endToEnd(e *env, ph *phase, before, after counters, setupS, liveMB float64) map[string]metricValue {
	all := func(sample) bool { return true }
	class := func(c int) func(sample) bool { return func(s sample) bool { return s.class == c } }
	lat := timingOf(ph.reads, all)
	light := timingOf(ph.reads, class(classLight))
	heavy := timingOf(ph.reads, class(classHeavy))
	ops := 0
	for _, s := range ph.reads {
		if s.ok {
			ops++
		}
	}
	for _, s := range ph.writes {
		if s.ok {
			ops++
		}
	}
	out := map[string]metricValue{
		"setup_s":          {Value: num(setupS), N: 1},
		"throughput_ops_s": {Value: num(throughput(ph.reads, ph.dur)), N: lat.N},
		"latency_p50_ms":   {Value: num(lat.P50), P95: num(lat.P95), N: lat.N},
		"latency_p95_ms":   {Value: num(lat.P95), N: lat.N},
		"light_p50_ms":     {Value: num(light.P50), P95: num(light.P95), N: light.N},
		"heavy_p50_ms":     {Value: num(heavy.P50), P95: num(heavy.P95), N: heavy.N},
		"geomean_ms":       {Value: num(geomean(ph.reads, len(e.seq.Templates))), N: lat.N},
		"alloc_kb_per_op":  {Value: num(float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / float64(max(ops, 1))), N: ops},
		"live_heap_mb":     {Value: num(liveMB)},
	}
	if len(e.writes) > 0 {
		w := timingOf(ph.writes, all)
		out["write_ops_s"] = metricValue{Value: num(throughput(ph.writes, ph.dur)), N: w.N}
		out["write_p50_ms"] = metricValue{Value: num(w.P50), P95: num(w.P95), N: w.N}
		out["write_p95_ms"] = metricValue{Value: num(w.P95), N: w.N}
	}
	return out
}

// durability is what the post-window reopen of mixed-rw measured.
type durability struct {
	recoveryS, checkpointS float64
}

// checkDurability closes the WAL without a checkpoint, reopens a fresh
// instance from the log directory alone and re-counts: every
// acknowledged write must be there.
func (r *runner) checkDurability(ctx context.Context) (durability, error) {
	e := r.e
	want := r.insAcked.Load() - r.delAcked.Load()
	count := func(db *core.SSDM, q string) (int64, error) {
		res, err := db.QueryContext(ctx, q)
		if err != nil {
			return 0, err
		}
		n, ok := res.Get(0, "n").(rdf.Integer)
		if res.Len() != 1 || !ok {
			return 0, fmt.Errorf("COUNT returned %v", res.Rows)
		}
		return int64(n), nil
	}
	if got, err := count(e.db, wcountQuery); err != nil || got != want {
		return durability{}, fmt.Errorf("write-namespace count after the window: got %d, acknowledged %d (%v)", got, want, err)
	}
	if err := e.db.CloseWAL(); err != nil {
		return durability{}, fmt.Errorf("closing the WAL: %w", err)
	}
	t0 := time.Now()
	reopened := core.OpenWith(e.opts)
	if _, err := reopened.EnableWAL(); err != nil {
		return durability{}, fmt.Errorf("reopening from the WAL: %w", err)
	}
	d := durability{recoveryS: time.Since(t0).Seconds()}
	e.onClose(reopened.CloseWAL)
	if got, err := count(reopened, wcountQuery); err != nil || got != want {
		return d, fmt.Errorf("acknowledged writes missing after reopen: got %d documents, acknowledged %d (%v)", got, want, err)
	}
	// The last acknowledged insert must be there whole.
	for i := r.wnext - 1; i >= 0; i-- {
		if w := e.writes[i]; w.Kind == writeInsert {
			q := fmt.Sprintf("%sSELECT (COUNT(?p) AS ?n) WHERE { w:doc%d ?p ?o }", prefixW, w.Doc)
			// Ten triples, or none if a later delete took it.
			if n, err := count(reopened, q); err != nil || (n != 10 && n != 0) {
				return d, fmt.Errorf("document %d has %d triples after reopen (%v)", w.Doc, n, err)
			}
			break
		}
	}
	t0 = time.Now()
	if err := reopened.Checkpoint(); err != nil {
		return d, fmt.Errorf("checkpoint: %w", err)
	}
	d.checkpointS = time.Since(t0).Seconds()
	return d, nil
}

// meanMetrics are the traced observations reported as means.
var meanMetrics = map[string]bool{
	"engine.where_us": true, "engine.agg_us": true, "engine.sort_us": true, "engine.proj_us": true,
	"engine.vectorized_query_ratio": true, "engine.bindings_per_row": true, "engine.match_calls_per_query": true,
	"array.chunk_fetches_per_query": true, "array.chunk_wait_share": true,
	// Half of sharded-mix is pushdown and half gather, seventy-fold apart:
	// a median of the legs would sit on the step between the two.
	"shard.leg_max_us": true, "shard.leg_sum_us": true, "shard.coord_self_us": true,
}

// layerMetrics fills rep.PerLayer from three sources: the exported
// counters' deltas over the untraced reference window ref (a traced
// window's replays would inflate every cache's hits), what the tracer
// observed on the traced window's sampled ops, and the direct probes.
func layerMetrics(ctx context.Context, rep *report, r *runner, tr *tracer, ref, traced *phase, before, after counters, dur durability) error {
	e := r.e
	// Direct probes, on the layers the workload exercises.
	if err := tr.probeFloor(ctx); err != nil {
		return err
	}
	switch e.name {
	case wlArrayResident, wlArrayOutOfCore:
		if err := errors.Join(tr.probeKernels(e.cfg.Scale.Steps), tr.probeStore(ctx), tr.probeCodec()); err != nil {
			return err
		}
	case wlShardedMix:
		if err := errors.Join(tr.probeRDF(), tr.probeCodec()); err != nil {
			return err
		}
	default:
		if err := tr.probeRDF(); err != nil {
			return err
		}
	}

	set := func(name string, v float64, n int) {
		rep.PerLayer[name] = metricValue{Value: num(v), N: n}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	secs := after.at.Sub(before.at).Seconds()
	reads := 0
	for _, s := range ref.reads {
		if s.ok {
			reads++
		}
	}
	q := float64(max(reads, 1))

	// Everything the replays and probes observed: the median, or for the
	// engine's phase split and per-query counts the mean — most traced
	// queries are light and spend nothing in agg or sort, so a median
	// would hide the heavy queries the phases exist to explain.
	for name, vals := range tr.obs {
		sort.Float64s(vals)
		v := quantile(vals, 0.5)
		if meanMetrics[name] {
			v = 0
			for _, x := range vals {
				v += x / float64(len(vals))
			}
		}
		rep.PerLayer[name] = metricValue{Value: num(v), P95: num(quantile(vals, 0.95)), N: len(vals)}
	}

	set("turtle.load_triples_per_s", e.loadRate, e.triples)
	set("httpfront.rejected_ratio", ratio(float64(r.refused.Load()), float64(r.attempted.Load())), int(r.attempted.Load()))

	hits, misses := float64(after.qc.Hits-before.qc.Hits), float64(after.qc.Misses-before.qc.Misses)
	set("core.qcache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))

	dict := e.oracleDB.DictStats()
	set("rdf.dict_terms", float64(dict.Terms), 1)
	set("rdf.dict_bytes", float64(dict.Bytes), 1)

	ch := float64(after.cc.Hits - before.cc.Hits)
	cm := float64(after.cc.Misses - before.cc.Misses)
	co := float64(after.cc.Coalesced - before.cc.Coalesced)
	var demand float64 // chunks the window's ops read their arrays from
	if e.chunks != nil {
		for _, s := range ref.reads {
			demand += float64(e.chunks[s.text])
		}
	}
	if demand > 0 {
		set("chunkcache.hit_ratio", 1-cm/demand, int(demand))
	}
	set("chunkcache.coalesced_ratio", ratio(co, ch+cm+co), int(ch+cm+co))
	set("chunkcache.evictions_per_s", float64(after.cc.Evictions-before.cc.Evictions)/secs, int(after.cc.Evictions-before.cc.Evictions))
	set("chunkcache.peak_mb", float64(after.cc.PeakBytes)/(1<<20), 1)

	set("filestore.read_calls_per_query", float64(after.reads-before.reads)/q, reads)
	set("filestore.kb_per_query", float64(after.bytes-before.bytes)/1024/q, reads)
	if e.store != nil {
		set("filestore.inflight_peak", float64(e.store.InflightPeak()), 1)
	}

	syncs := float64(after.wal.Syncs - before.wal.Syncs)
	set("wal.commits_per_sync", ratio(float64(after.wal.Commits-before.wal.Commits), syncs), int(syncs))
	userBytes := after.user - before.user
	set("wal.bytes_per_user_byte", ratio(float64(after.wal.AppendedBytes-before.wal.AppendedBytes), float64(userBytes)), int(userBytes))
	set("wal.recovery_s", dur.recoveryS, 1)
	set("wal.checkpoint_s", dur.checkpointS, 1)

	push := float64(after.shard.PushdownQueries - before.shard.PushdownQueries)
	gather := float64(after.shard.GatherQueries - before.shard.GatherQueries)
	var calls, rows float64
	for i := range after.shard.PerShard {
		calls += float64(after.shard.PerShard[i].Calls - before.shard.PerShard[i].Calls)
		rows += float64(after.shard.PerShard[i].Rows - before.shard.PerShard[i].Rows)
	}
	set("shard.pushdown_ratio", ratio(push, push+gather), int(push+gather))
	set("shard.calls_per_query", ratio(calls, push+gather), int(push+gather))
	set("shard.rows_per_query", ratio(rows, push+gather), int(push+gather))
	set("shard.errors", float64(after.shard.Errors), 1)

	// Tail latencies of the untraced reference window: reported, not gated.
	lats := make([]float64, 0, len(ref.reads))
	for _, s := range ref.reads {
		if s.ok {
			lats = append(lats, ms(s.lat))
		}
	}
	sort.Float64s(lats)
	set("client.latency_p99_ms", quantile(lats, 0.99), len(lats))
	set("client.latency_max_ms", quantile(lats, 1), len(lats))
	set("trace.overhead_ratio", 1-ratio(throughput(traced.reads, traced.dur), throughput(ref.reads, ref.dur)), reads)

	// The end-to-end metrics BENCHMARK.json cannot gate (defined on one
	// workload, or zero on a correct run) ride along as client.<name>,
	// measured in the untraced phases of this run.
	for _, m := range endToEndSpecs {
		if !m.Driver {
			v := rep.EndToEnd[m.Name]
			rep.PerLayer[demotedName(m.Name)] = v
		}
	}

	// Every declared metric is present; one the workload does not
	// exercise reads zero.
	for _, m := range allPerLayer() {
		v, ok := rep.PerLayer[m.Name]
		if !ok || v.Value == nil {
			v.Value = num(0)
		}
		v.Unit = m.Unit
		rep.PerLayer[m.Name] = v
	}
	return nil
}
