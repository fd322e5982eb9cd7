package main

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// This file is the one table the benchmark is defined by: the five
// workloads, the end-to-end metrics with their regression bounds, and
// the per-layer metrics. BENCHMARK.json, -list, the report writer and
// -compare are all generated from it (bench_test.go fails on drift
// between this table and the committed BENCHMARK.json).

// Workload names. Later issues refer to these.
const (
	wlMetaMix        = "meta-mix"
	wlArrayResident  = "array-resident"
	wlArrayOutOfCore = "array-outofcore"
	wlMixedRW        = "mixed-rw"
	wlShardedMix     = "sharded-mix"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{wlMetaMix, "HTTP metadata-only mix: httpfront, sparql, query cache, engine and rdf do all the work; array, storage, wal and shard do none"},
	{wlArrayResident, "framed-TCP BISTAB array queries with every chunk a cache hit: kernel-bound, array ops and protocol array codec dominate, retrieval is ~0"},
	{wlArrayOutOfCore, "same array mix with the working set 8x the chunk cache and 200us per read: retrieval-bound, filestore, spd and cache eviction dominate"},
	{wlMixedRW, "HTTP reads beside a continuous WAL-durable writer: copy-on-write generations, plan refresh and group commit, so a read gain that taxes writers shows"},
	{wlShardedMix, "HTTP to a 4-shard coordinator, half pushdown and half gather: the only workload with shard scatter, merge and leg codecs on the blocking path"},
}

// metricSpec declares one metric. An end-to-end metric with Driver set
// is listed in BENCHMARK.json's end_to_end, where the driver enforces
// its Bound. The others are carried there as per-layer "client.<name>"
// metrics: the driver contract wants every end-to-end metric defined,
// and never zero, on every workload (so not the ones defined on one
// workload only, nor failed_ratio), and within its bound from run to
// run (so not the latencies and the throughput, see notGated). The
// report and -compare still list all fifteen.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the base median it may worsen by; 0 = any increase; notGated
	Driver bool
	Only   string // workload the metric is defined on ("" = all)
	Help   string
}

// notGated marks an end-to-end metric that is reported and compared but
// has no regression bound. The issue caps every bound at 10 % and asks
// for a metric that cannot meet its bound on this host to be demoted
// rather than the bound widened. Closed-loop timings cannot: over ten
// seeds their quartile spread reached 15 % on array-resident, 24 % on
// meta-mix and 36 % on mixed-rw, and a timing that spread by 2 % in one
// study spread by 12 % in the next (README "Steadiness"), because the
// host's own speed drifts by 5-8 % within minutes and two clients plus
// the servers leave no idle core to absorb it. A gain or a regression
// in them is shown by alternating pairs of runs, not by a bound.
const notGated = -1

// setup_s is the one bound above the issue's cap of 10 %. It cannot be
// demoted (the driver requires it in end_to_end), the driver's contract
// asks for the largest bound on it, and the driver rejects the benchmark
// when its median moves by more than the bound between two passes taken
// minutes apart: between sets of ten runs of one commit it moved by
// 10-12 % on four of the five workloads (README "Steadiness").
var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Driver: true,
		Help: "generate + load + listeners up + first correct answer"},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: notGated,
		Help: "correct read ops per second over the closed-loop window"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: notGated,
		Help: "median read latency over the window, send to last byte"},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: notGated,
		Help: "95th percentile read latency over the window"},
	{Name: "light_p50_ms", Unit: "ms", Better: "lower", Bound: notGated,
		Help: "median latency of the light class"},
	{Name: "heavy_p50_ms", Unit: "ms", Better: "lower", Bound: notGated,
		Help: "median latency of the heavy class"},
	{Name: "geomean_ms", Unit: "ms", Better: "lower", Bound: notGated,
		Help: "geometric mean of per-template median latencies (SP2Bench's tail-sensitive mean)"},
	{Name: "write_ops_s", Unit: "1/s", Better: "higher", Bound: 0.10, Only: wlMixedRW,
		Help: "acknowledged (durable) write ops per second"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Only: wlMixedRW,
		Help: "median write latency, send to durable acknowledgement"},
	{Name: "write_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10, Only: wlMixedRW,
		Help: "95th percentile write latency"},
	{Name: "open_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Only: wlMetaMix,
		Help: "open-loop median latency from each request's due time"},
	{Name: "open_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10, Only: wlMetaMix,
		Help: "open-loop 95th percentile latency from each request's due time"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Bound: 0,
		Help: "failed / attempted: errors, refusals, timeouts and oracle mismatches"},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.10, Driver: true,
		Help: "runtime.MemStats.TotalAlloc delta over the window / ops (server and generator share the process)"},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.05, Driver: true,
		Help: "HeapAlloc after a forced GC at window end, less the harness's samples: dataset + dictionaries + caches"},
}

// perLayerSpecs lists the layer metrics in the order the issue gives
// them; Help names the exported function or counter each is read from.
var perLayerSpecs = []metricSpec{
	{Name: "turtle.load_triples_per_s", Unit: "1/s", Better: "higher", Help: "LoadTurtle of the base graph"},

	{Name: "httpfront.serve_self_us", Unit: "us", Better: "lower", Help: "Front.ServeHTTP on a recorder minus embedded QueryLimits"},
	{Name: "httpfront.encode_json_us_per_row", Unit: "us", Better: "lower", Help: "engine.WriteJSON to io.Discard"},
	{Name: "httpfront.encode_csv_us_per_row", Unit: "us", Better: "lower", Help: "engine.WriteCSV to io.Discard"},
	{Name: "httpfront.rejected_ratio", Unit: "ratio", Better: "lower", Help: "429/503 responses / requests"},
	{Name: "http.transport_us", Unit: "us", Better: "lower", Help: "client RTT minus ServeHTTP on a recorder"},

	{Name: "tcp.transport_us", Unit: "us", Better: "lower", Help: "ssdmclient RTT minus the server-side trace total"},
	{Name: "protocol.encode_term_ns", Unit: "ns", Better: "lower", Help: "protocol.EncodeTerm per result cell"},
	{Name: "protocol.array_codec_us_per_kb", Unit: "us", Better: "lower", Help: "protocol.EncodeArray + DecodeArray"},

	{Name: "core.qcache_hit_ratio", Unit: "ratio", Better: "higher", Help: "QueryCacheStats hits / lookups over the window"},
	{Name: "core.query_self_us", Unit: "us", Better: "lower", Help: "QueryLimits minus Engine.Query, compiled-query cache hit path"},
	{Name: "core.update_us", Unit: "us", Better: "lower", Help: "embedded UpdateLimits on a WAL-less instance"},

	{Name: "sparql.parse_us.light", Unit: "us", Better: "lower", Help: "sparql.ParseQuery, light texts"},
	{Name: "sparql.parse_us.heavy", Unit: "us", Better: "lower", Help: "sparql.ParseQuery, heavy and fallback texts"},
	{Name: "sparql.parse_update_us", Unit: "us", Better: "lower", Help: "sparql.ParseAll on write texts"},

	{Name: "engine.exec_us.light", Unit: "us", Better: "lower", Help: "Engine.Query on the parsed query"},
	{Name: "engine.exec_us.heavy", Unit: "us", Better: "lower", Help: "Engine.Query on the parsed query"},
	{Name: "engine.exec_us.fallback", Unit: "us", Better: "lower", Help: "Engine.Query on the parsed query"},
	{Name: "engine.where_us", Unit: "us", Better: "lower", Help: "Trace.WhereNanos per traced query"},
	{Name: "engine.agg_us", Unit: "us", Better: "lower", Help: "Trace.AggNanos per traced query"},
	{Name: "engine.sort_us", Unit: "us", Better: "lower", Help: "Trace.SortNanos per traced query"},
	{Name: "engine.proj_us", Unit: "us", Better: "lower", Help: "Trace.ProjNanos per traced query"},
	{Name: "engine.vectorized_query_ratio", Unit: "ratio", Better: "higher", Help: "share of traced queries whose Trace.Vectorized is set"},
	{Name: "engine.bindings_per_row", Unit: "count", Better: "lower", Help: "Trace.Bindings / Trace.Rows"},
	{Name: "engine.match_calls_per_query", Unit: "count", Better: "lower", Help: "Trace.MatchCalls per traced query"},

	{Name: "rdf.match_ns_per_triple", Unit: "ns", Better: "lower", Help: "Graph.MatchIDs, predicate-bound scan"},
	{Name: "rdf.probe_ns", Unit: "ns", Better: "lower", Help: "Graph.HasIDs"},
	{Name: "rdf.add_ns_per_triple", Unit: "ns", Better: "lower", Help: "Tx.Add + Commit on a scratch graph"},
	{Name: "rdf.dict_terms", Unit: "count", Better: "lower", Help: "DictStats.Terms"},
	{Name: "rdf.dict_bytes", Unit: "B", Better: "lower", Help: "DictStats.Bytes"},

	{Name: "array.condense_ns_per_elem", Unit: "ns", Better: "lower", Help: "array.Condense on a resident 2x16384 array"},
	{Name: "array.map_ns_per_elem", Unit: "ns", Better: "lower", Help: "array.Map on a resident 2x16384 array"},
	{Name: "array.aggalong_ns_per_elem", Unit: "ns", Better: "lower", Help: "Array.AggregateAlong on a resident 2x16384 array"},
	{Name: "array.chunk_wait_share", Unit: "ratio", Better: "lower", Help: "Trace.ChunkWaitNanos / Trace.TotalNanos"},
	{Name: "array.chunk_fetches_per_query", Unit: "count", Better: "lower", Help: "Trace.ChunkFetches per traced query"},

	{Name: "chunkcache.hit_ratio", Unit: "ratio", Better: "higher", Help: "1 - ChunkCacheStats misses / distinct chunks the window's ops read (counted per text on a cold cache at set-up)"},
	{Name: "chunkcache.coalesced_ratio", Unit: "ratio", Better: "higher", Help: "ChunkCacheStats coalesced / lookups"},
	{Name: "chunkcache.evictions_per_s", Unit: "1/s", Better: "lower", Help: "ChunkCacheStats evictions over the window"},
	{Name: "chunkcache.peak_mb", Unit: "MiB", Better: "lower", Help: "ChunkCacheStats.PeakBytes"},

	{Name: "filestore.read_us_per_chunk.contig", Unit: "us", Better: "lower", Help: "Store.ReadChunksCtx, one contiguous run"},
	{Name: "filestore.read_us_per_chunk.strided", Unit: "us", Better: "lower", Help: "Store.ReadChunksCtx, one stride-2 run"},
	{Name: "filestore.read_calls_per_query", Unit: "count", Better: "lower", Help: "Store.Stats read calls / queries"},
	{Name: "filestore.kb_per_query", Unit: "KiB", Better: "lower", Help: "Store.Stats bytes read / queries"},
	{Name: "filestore.inflight_peak", Unit: "count", Better: "higher", Help: "Store.InflightPeak"},
	{Name: "spd.runs_per_fetch", Unit: "count", Better: "lower", Help: "spd.Detect on the chunks each template's access touches, weighted as the mix"},
	{Name: "filestore.store_mb_per_s", Unit: "MiB/s", Better: "higher", Help: "Store.Store during set-up"},

	{Name: "wal.append_commit_us", Unit: "us", Better: "lower", Help: "Log.Append + Commit on a scratch log, same policy"},
	{Name: "wal.commits_per_sync", Unit: "count", Better: "higher", Help: "WALStats commits / syncs over the window"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower", Help: "WALStats appended bytes / update text bytes"},
	{Name: "wal.recovery_s", Unit: "s", Better: "lower", Help: "reopen + EnableWAL after the window"},
	{Name: "wal.checkpoint_s", Unit: "s", Better: "lower", Help: "Checkpoint after recovery"},

	{Name: "shard.pushdown_ratio", Unit: "ratio", Better: "higher", Help: "ShardStats pushdown / (pushdown + gather)"},
	{Name: "shard.calls_per_query", Unit: "count", Better: "lower", Help: "ShardStats per-shard calls / queries"},
	{Name: "shard.rows_per_query", Unit: "count", Better: "lower", Help: "ShardStats rows streamed back / queries"},
	{Name: "shard.leg_max_us", Unit: "us", Better: "lower", Help: "slowest shard's Query/Scan time, mean over traced queries"},
	{Name: "shard.leg_sum_us", Unit: "us", Better: "lower", Help: "all shards' Query/Scan time, mean over traced queries"},
	{Name: "shard.coord_self_us", Unit: "us", Better: "lower", Help: "coordinator QueryLimits minus leg_max, mean over traced queries"},
	{Name: "shard.errors", Unit: "count", Better: "lower", Help: "ShardStats.Errors"},

	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower", Help: "read latency p99 over the whole window (not gated: does not repeat within a tenth)"},
	{Name: "client.latency_max_ms", Unit: "ms", Better: "lower", Help: "read latency maximum over the whole window"},
	{Name: "gen.late_ratio", Unit: "ratio", Better: "lower", Help: "open-loop sends more than 1 ms after their due time"},
	{Name: "gen.floor_us", Unit: "us", Better: "lower", Help: "the same client against a no-op handler"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Help: "1 - traced throughput / untraced throughput"},
}

// demotedName is the per-layer name BENCHMARK.json lists an ungated
// end-to-end metric under.
func demotedName(name string) string { return "client." + name }

// allPerLayer is perLayerSpecs plus the demoted end-to-end metrics —
// every name a traced run prints.
func allPerLayer() []metricSpec {
	out := append([]metricSpec(nil), perLayerSpecs...)
	for _, m := range endToEndSpecs {
		if !m.Driver {
			d := m
			d.Name = demotedName(m.Name)
			out = append(out, d)
		}
	}
	return out
}

// driverEndToEnd is what BENCHMARK.json lists under end_to_end.
func driverEndToEnd() []metricSpec {
	var out []metricSpec
	for _, m := range endToEndSpecs {
		if m.Driver {
			out = append(out, m)
		}
	}
	return out
}

// runSeconds is the window the driver measures for; see README
// "Run-time budget" for how it was sized.
const runSeconds = 15

// benchmarkJSON renders BENCHMARK.json from the table.
func benchmarkJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "scisparql/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range driverEndToEnd() {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range allPerLayer() {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the table holds only strings and numbers
	}
	return append(b, '\n')
}

// printList implements -list.
func printList(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, wl := range workloadSpecs {
		fmt.Fprintf(tw, "%s\t%s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(tw, "\t")
	fmt.Fprintln(tw, "END-TO-END METRIC\tUNIT\tBETTER\tBOUND\tON\tWHAT")
	for _, m := range endToEndSpecs {
		on := "all"
		if m.Only != "" {
			on = m.Only
		}
		bound := fmt.Sprintf("%.0f%%", m.Bound*100)
		switch m.Bound {
		case 0:
			bound = "any rise"
		case notGated:
			bound = "not gated"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better, bound, on, m.Help)
	}
	fmt.Fprintln(tw, "\t")
	fmt.Fprintln(tw, "PER-LAYER METRIC\tUNIT\tBETTER\tREAD FROM")
	for _, m := range perLayerSpecs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better, m.Help)
	}
	return tw.Flush()
}
