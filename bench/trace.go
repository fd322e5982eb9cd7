package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"scisparql/internal/engine"
	"scisparql/internal/protocol"
	"scisparql/internal/sparql"
)

// The traced run measures every layer from outside: for every
// traceEvery-th op it times the real request and then replays the text
// step by step through the layers' exported functions, recording one
// in-memory span per call. Spans of one op share its ID.
//
// A sampled op runs alone (the other client waits at the gate), so the
// differences between nested calls — client RTT minus ServeHTTP minus
// QueryLimits minus Engine.Query — are service times, not contention,
// and counter deltas around it belong to it. End-to-end metrics never
// come from this run.

const traceEvery = 20

// writeOpBase offsets the op IDs of sampled writes past those of reads.
const writeOpBase = 1 << 40

// span is one timed call into a layer. Replayed calls run one after
// the other, not inside each other, so a child's interval is laid out
// at the front of its parent's: durations are measured, positions are
// presentation. Self time is the span minus what its children cover.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0 = root
	Op      int64  `json:"op"`     // the op (or probe) the span belongs to
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// node is a span before layout.
type node struct {
	name, layer string
	dur         time.Duration
	kids        []*node
	parallel    bool // children overlap (shard legs) instead of following each other
}

func (n *node) add(name, layer string, dur time.Duration) *node {
	k := &node{name: name, layer: layer, dur: max(dur, 0)}
	n.kids = append(n.kids, k)
	return k
}

type tracer struct {
	e     *env
	gate  sync.RWMutex // a sampled op holds it exclusively
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID int64
	probes int64 // probe spans get op IDs below zero
	obs    map[string][]float64
}

func newTracer(e *env) *tracer {
	return &tracer{e: e, epoch: time.Now(), obs: map[string][]float64{}}
}

func (t *tracer) samples(i int64) bool { return i%traceEvery == 0 }

func (t *tracer) observe(name string, v float64) {
	t.mu.Lock()
	t.obs[name] = append(t.obs[name], v)
	t.mu.Unlock()
}

// emit lays a tree out from start and appends its spans.
func (t *tracer) emit(op int64, root *node, start time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lay func(n *node, parent, from, limit int64)
	lay = func(n *node, parent, from, limit int64) {
		t.nextID++
		id := t.nextID
		end := min(from+int64(n.dur), limit)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: n.name, Layer: n.layer, StartNS: from, EndNS: end})
		at := from
		for _, k := range n.kids {
			lay(k, id, at, end)
			if !n.parallel {
				at = min(at+int64(k.dur), end)
			}
		}
	}
	from := start.Sub(t.epoch).Nanoseconds()
	lay(root, 0, from, from+int64(root.dur))
}

// probeSpan records a direct layer probe as a one-span op, so layers
// no request can be split into from outside (rdf, wal, the kernels)
// still have busy time in the table.
func (t *tracer) probeSpan(name, layer string, start time.Time, dur time.Duration) {
	t.mu.Lock()
	t.probes++
	op := -t.probes
	t.mu.Unlock()
	t.emit(op, &node{name: name, layer: layer, dur: dur}, start)
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// replay is called with the gate held exclusively, right after the
// sampled op i completed with reply rep. missed says the compiled-query
// cache's miss counter moved during the op (HTTP; the framed-TCP trace
// carries its own flag).
func (t *tracer) replay(ctx context.Context, i int64, o op, rep reply, missed bool) {
	e := t.e
	text := e.seq.Texts[o.Text]
	class := classNames[min(o.Class, classHeavy)] // fallback parses like heavy
	start := time.Now().Add(-rep.lat)
	root := &node{name: "client.request", layer: "client", dur: rep.lat}

	// sparql: parse alone. On the blocking path only when the
	// compiled-query cache missed.
	var q *sparql.Query
	parse := timed(func() { q, _ = sparql.ParseQuery(text) })
	if q == nil {
		return // the real op succeeded, so this cannot happen; nothing to attribute
	}
	t.observe("sparql.parse_us."+class, us(parse))

	if e.isHTTP() {
		var missParse time.Duration
		if missed {
			missParse = parse
		}
		t.replayHTTP(ctx, root, o, text, q, missParse)
	} else {
		t.replayTCP(ctx, root, o, text, q, rep)
	}
	t.emit(i+1, root, start)
}

func (t *tracer) replayHTTP(ctx context.Context, root *node, o op, text string, q *sparql.Query, missParse time.Duration) {
	e := t.e

	// httpfront: the handler on a recorder — everything but the socket.
	req, err := queryRequest(ctx, "", text, o)
	if err != nil {
		return
	}
	serve := timed(func() { e.front.ServeHTTP(httptest.NewRecorder(), req) })
	t.observe("http.transport_us", us(root.dur-serve))
	front := root.add("httpfront.serve", "httpfront", serve)

	// core: the embedded call the handler makes. The text is in the
	// compiled-query cache by now, so this is the hit path; when the
	// real request missed, its parse is added back below.
	legs := &legLog{}
	lctx := context.WithValue(ctx, legLogKey{}, legs)
	var res *engine.Results
	query := timed(func() { res, _ = e.db.QueryLimits(lctx, text, engine.Limits{}) })
	if res == nil {
		return
	}
	t.observe("httpfront.serve_self_us", us(serve-query))
	front.dur += missParse
	cq := front.add("core.query", "core", query+missParse)
	if missParse > 0 {
		cq.add("sparql.parse", "sparql", missParse)
	}

	if e.coord != nil {
		t.shardLegs(cq, legs, query)
	} else {
		exec := timed(func() { _, _ = e.db.Engine.Query(q) })
		t.observe("engine.exec_us."+classNames[o.Class], us(exec))
		t.observe("core.query_self_us", us(query-exec))
		eq := cq.add("engine.query", "engine", exec)
		if _, tr, err := e.db.QueryAnalyze(ctx, text, engine.Limits{}); err == nil {
			t.enginePhases(eq, traceOfEngine(tr))
		}
	}

	// httpfront again: the result encoders.
	rows := float64(max(res.Len(), 1))
	encJSON := timed(func() { _ = engine.WriteJSON(io.Discard, res) })
	encCSV := timed(func() { _ = engine.WriteCSV(io.Discard, res) })
	t.observe("httpfront.encode_json_us_per_row", us(encJSON)/rows)
	t.observe("httpfront.encode_csv_us_per_row", us(encCSV)/rows)
	if o.Format == fmtCSV {
		front.add("httpfront.encode", "httpfront", encCSV)
	} else {
		front.add("httpfront.encode", "httpfront", encJSON)
	}
}

// shardLegs turns the leg calls of one replayed coordinator query into
// spans: one child per shard, overlapping, each the sum of that
// shard's calls. The slowest leg, not the sum, is what the query
// waited for.
func (t *tracer) shardLegs(parent *node, legs *legLog, query time.Duration) {
	legs.mu.Lock()
	defer legs.mu.Unlock()
	per := map[string]time.Duration{}
	var sum, slowest time.Duration
	for _, c := range legs.calls {
		d := c.end.Sub(c.start)
		per[c.shard] += d
		sum += d
	}
	scatter := parent.add("shard.scatter", "shard", 0)
	scatter.parallel = true
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		slowest = max(slowest, per[name])
		scatter.add("shard.leg", "shard-leg", per[name])
	}
	scatter.dur = slowest
	t.observe("shard.leg_max_us", us(slowest))
	t.observe("shard.leg_sum_us", us(sum))
	t.observe("shard.coord_self_us", us(query-slowest))
}

// enginePhases hangs the trace's phase timings under the engine span.
func (t *tracer) enginePhases(eq *node, tr *execTrace) {
	t.observe("engine.where_us", us(tr.Where))
	t.observe("engine.agg_us", us(tr.Agg))
	t.observe("engine.sort_us", us(tr.Sort))
	t.observe("engine.proj_us", us(tr.Proj))
	t.observe("engine.bindings_per_row", float64(tr.Bindings)/float64(max(tr.Rows, 1)))
	t.observe("engine.match_calls_per_query", float64(tr.MatchCalls))
	vectorized := 0.0
	if tr.Vectorized {
		vectorized = 1
	}
	t.observe("engine.vectorized_query_ratio", vectorized)
	where := eq.add("engine.where", "engine", tr.Where)
	eq.add("engine.agg", "engine", tr.Agg)
	eq.add("engine.sort", "engine", tr.Sort)
	proj := eq.add("engine.proj", "engine", tr.Proj)
	if tr.ChunkWait > 0 {
		// Chunk waits happen while matching or while projecting; the
		// trace does not say which, so the wait goes under the longer.
		host := proj
		if tr.Where > tr.Proj {
			host = where
		}
		host.add("array.chunk_wait", "storage", tr.ChunkWait)
	}
}

func (t *tracer) replayTCP(ctx context.Context, root *node, o op, text string, q *sparql.Query, rep reply) {
	e := t.e
	tr := rep.trace
	if tr == nil {
		return
	}
	// The server-side trace of the real request: a replay here would
	// find the chunks the request just fetched in the cache.
	t.observe("tcp.transport_us", us(rep.lat-tr.Parse-tr.Total))
	t.observe("engine.exec_us."+classNames[o.Class], us(tr.Total))
	t.observe("array.chunk_fetches_per_query", float64(tr.ChunkFetches))
	if tr.Total > 0 {
		t.observe("array.chunk_wait_share", float64(tr.ChunkWait)/float64(tr.Total))
	}
	cq := root.add("core.query", "core", tr.Parse+tr.Total)
	if !tr.PlanCached {
		cq.add("sparql.parse", "sparql", tr.Parse)
	}
	t.enginePhases(cq.add("engine.query", "engine", tr.Total), tr)

	// core's own share, both calls chunk-cache-hot.
	var res *engine.Results
	query := timed(func() { res, _ = e.db.QueryLimits(ctx, text, engine.Limits{}) })
	exec := timed(func() { _, _ = e.db.Engine.Query(q) })
	if res == nil {
		return
	}
	t.observe("core.query_self_us", us(query-exec))

	// protocol: the term codec over the result's cells, arrays included.
	codec := timed(func() {
		for _, row := range res.Rows {
			for _, term := range row {
				if wt, err := protocol.EncodeTerm(term); err == nil {
					_, _ = protocol.DecodeTerm(wt)
				}
			}
		}
	})
	root.add("protocol.codec", "protocol", codec)
}

// replayWrite attributes one acknowledged mixed-rw write: the update
// applied to a scratch WAL-less instance (parse + copy-on-write
// commit) and an append + commit of the same size on a scratch log
// under the same policy. The rest of the RTT is transport, httpfront
// and group-commit dwell behind the reader's traffic.
func (t *tracer) replayWrite(ctx context.Context, i int64, text string, lat time.Duration, p *probeKit) {
	start := time.Now().Add(-lat)
	root := &node{name: "client.update", layer: "client", dur: lat}
	parse := timed(func() { _, _ = sparql.ParseAll(text) })
	t.observe("sparql.parse_update_us", us(parse))
	apply := timed(func() { _, _ = p.scratchDB.UpdateLimits(ctx, text, engine.Limits{}) })
	t.observe("core.update_us", us(apply))
	cu := root.add("core.update", "core", apply)
	cu.add("sparql.parse_update", "sparql", parse)
	commit := timed(func() {
		if lsn, err := p.scratchLog.Append(1, []byte(text)); err == nil {
			_ = p.scratchLog.Commit(lsn)
		}
	})
	t.observe("wal.append_commit_us", us(commit))
	root.add("wal.append_commit", "wal", commit)
	t.emit(i+writeOpBase, root, start)
}

// --- output -----------------------------------------------------------

// layerRow is one line of the per-layer table. Request rows come from
// the spans of sampled ops and their shares add up to the traced
// requests' time; probe rows come from the direct probes, which run
// after the window and have no request to be a share of.
type layerRow struct {
	Layer  string  `json:"layer"`
	Probe  bool    `json:"probe,omitempty"`
	Spans  int     `json:"spans"`
	BusyMS float64 `json:"busy_ms"` // spans not nested in a span of the same layer
	SelfMS float64 `json:"self_ms"` // span minus covered children
	Share  float64 `json:"self_share"`
}

// layerTable computes busy and self time per layer. Children were laid
// out inside their parents, so coverage is the union of the child
// intervals clipped to the parent.
func layerTable(spans []span) []layerRow {
	var ops, probes []span
	for _, s := range spans {
		if s.Op > 0 {
			ops = append(ops, s)
		} else {
			probes = append(probes, s)
		}
	}
	rows := layerRows(ops)
	for _, r := range layerRows(probes) {
		r.Probe, r.Share = true, 0
		rows = append(rows, r)
	}
	return rows
}

func layerRows(spans []span) []layerRow {
	byID := make(map[int64]*span, len(spans))
	kids := map[int64][]*span{}
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	rows := map[string]*layerRow{}
	var total float64
	for i := range spans {
		s := &spans[i]
		r := rows[s.Layer]
		if r == nil {
			r = &layerRow{Layer: s.Layer}
			rows[s.Layer] = r
		}
		r.Spans++
		if p := byID[s.Parent]; p == nil || p.Layer != s.Layer {
			r.BusyMS += float64(s.EndNS-s.StartNS) / 1e6
		}
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].StartNS < ks[b].StartNS })
		covered, at := int64(0), s.StartNS
		for _, k := range ks {
			lo, hi := max(k.StartNS, at), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self := float64(s.EndNS-s.StartNS-covered) / 1e6
		r.SelfMS += self
		total += self
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		if total > 0 {
			r.Share = r.SelfMS / total
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

func printLayerTable(w io.Writer, rows []layerRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tspans\tbusy ms\tself ms\tself share\t")
	for _, r := range rows {
		share := fmt.Sprintf("%.1f%%", r.Share*100)
		if r.Probe {
			share = "probe"
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%s\t\n", r.Layer, r.Spans, r.BusyMS, r.SelfMS, share)
	}
	tw.Flush()
}

// writeSpans writes trace-<workload>.json.
func (t *tracer) writeSpans(path string, layers []layerRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Layers   []layerRow `json:"layers"`
		Spans    []span     `json:"spans"`
	}{t.e.name, t.e.cfg.Seed, layers, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
