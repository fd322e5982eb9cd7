package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var tinyScale = scale{
	Docs:          200,
	ShardDocs:     200,
	ResidentTasks: 8,
	OutCoreTasks:  16,
	Steps:         512,
	ChunkBytes:    1 << 10,
	OutCoreCache:  16 << 10, // an eighth of the 16 x 8 KiB store, as at full scale
	MetaCycle:     400,
	ArrayCycle:    400,
	ShardCycle:    400,
	OpenRate:      50,
}

func tinyConfig(t *testing.T, workload string, seed int64) *config {
	return &config{
		Workload: workload,
		Seed:     seed,
		Window:   time.Second,
		Warmup:   200 * time.Millisecond,
		Open:     500 * time.Millisecond,
		Scale:    tinyScale,
		WorkDir:  t.TempDir(),
	}
}

// TestSmokeAllWorkloads runs every workload traced at tiny scale: a
// traced run reports both halves, so one run per workload shows that
// every declared metric is present and finite and every answer right.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wl := range workloadSpecs {
		t.Run(wl.Name, func(t *testing.T) {
			cfg := tinyConfig(t, wl.Name, 1)
			cfg.Trace = true
			rep, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, m := range endToEndSpecs {
				v, ok := rep.EndToEnd[m.Name]
				if !ok {
					t.Errorf("end-to-end metric %s missing", m.Name)
					continue
				}
				applies := m.Only == "" || m.Only == wl.Name
				switch {
				case applies && (v.Value == nil || math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0)):
					t.Errorf("end-to-end metric %s is not a finite number", m.Name)
				case !applies && v.Value != nil:
					t.Errorf("end-to-end metric %s should be null on %s", m.Name, wl.Name)
				case v.Unit != m.Unit:
					t.Errorf("end-to-end metric %s has unit %q, want %q", m.Name, v.Unit, m.Unit)
				}
			}
			for _, m := range allPerLayer() {
				v, ok := rep.PerLayer[m.Name]
				if !ok || v.Value == nil || math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0) {
					t.Errorf("per-layer metric %s missing or not finite", m.Name)
				}
			}
			if len(rep.PerLayer) != len(allPerLayer()) {
				t.Errorf("%d per-layer metrics reported, %d declared", len(rep.PerLayer), len(allPerLayer()))
			}
			if len(rep.Layers) == 0 {
				t.Error("traced run produced no layer table")
			}
			if _, err := os.Stat(filepath.Join(cfg.WorkDir, "trace-"+wl.Name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
			if rep.Meta.OpsSHA256 == "" || rep.Meta.GoVersion == "" || rep.Meta.Clients < 1 {
				t.Errorf("meta block incomplete: %+v", rep.Meta)
			}
			checkStress(t, wl.Name, rep)
		})
	}
}

// checkStress asserts each workload exercises the layers it was chosen
// for and leaves the others idle.
func checkStress(t *testing.T, workload string, rep *report) {
	val := func(name string) float64 { return *rep.PerLayer[name].Value }
	idle := func(names ...string) {
		for _, n := range names {
			if val(n) != 0 {
				t.Errorf("%s: %s = %g, want 0", workload, n, val(n))
			}
		}
	}
	switch workload {
	case wlMetaMix:
		idle("array.chunk_fetches_per_query", "filestore.read_calls_per_query", "wal.commits_per_sync", "shard.calls_per_query")
	case wlArrayResident:
		if val("chunkcache.hit_ratio") < 0.99 {
			t.Errorf("array-resident chunk cache hit ratio %g, want >= 0.99", val("chunkcache.hit_ratio"))
		}
		idle("wal.commits_per_sync", "shard.calls_per_query")
	case wlArrayOutOfCore:
		if val("chunkcache.hit_ratio") > 0.25 {
			t.Errorf("array-outofcore chunk cache hit ratio %g, want <= 0.25", val("chunkcache.hit_ratio"))
		}
		if val("chunkcache.evictions_per_s") == 0 || val("filestore.read_calls_per_query") == 0 {
			t.Error("array-outofcore neither evicted nor read from the store")
		}
	case wlMixedRW:
		if val("wal.commits_per_sync") == 0 || val(demotedName("write_ops_s")) == 0 || val("wal.recovery_s") == 0 {
			t.Error("mixed-rw did not commit through the WAL and recover from it")
		}
	case wlShardedMix:
		if r := val("shard.pushdown_ratio"); r <= 0 || r >= 1 {
			t.Errorf("sharded-mix pushdown ratio %g: want both pushdown and gather queries", r)
		}
	}
}

func TestOpsDigestFollowsSeed(t *testing.T) {
	digest := func(workload string, seed int64) string {
		e, _, err := setUp(tinyConfig(t, workload, seed))
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		return e.sha
	}
	for _, wl := range []string{wlMetaMix, wlMixedRW, wlArrayResident} {
		a, b, c := digest(wl, 7), digest(wl, 7), digest(wl, 8)
		if a != b {
			t.Errorf("%s: same seed, different ops_sha256", wl)
		}
		if a == c {
			t.Errorf("%s: different seeds, same ops_sha256", wl)
		}
	}
}

// TestWrongOracleFails corrupts every oracle and checks the harness
// counts the answers as failed and names an offending text.
func TestWrongOracleFails(t *testing.T) {
	e, _, err := setUp(tinyConfig(t, wlMetaMix, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.buildOracles(); err != nil {
		t.Fatal(err)
	}
	for i := range e.oracles {
		e.oracles[i].Full ^= 1
		e.oracles[i].Lex ^= 1
	}
	r := newRunner(e)
	if _, err := r.closedLoop(context.Background(), 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if r.attempted.Load() == 0 || r.failed.Load() != r.attempted.Load() {
		t.Fatalf("attempted %d, failed %d: every answer should have failed", r.attempted.Load(), r.failed.Load())
	}
	if r.mismatch == nil || !strings.Contains(r.mismatch.Error(), "SELECT") && !strings.Contains(r.mismatch.Error(), "ASK") {
		t.Fatalf("no offending text reported: %v", r.mismatch)
	}
}

func TestBenchmarkJSONMatchesTable(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json drifted from the metric table; regenerate it with: go run -C bench scisparql/bench -benchmark-json > BENCHMARK.json")
	}
	var list bytes.Buffer
	if err := printList(&list); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadSpecs {
		if !strings.Contains(list.String(), wl.Name) {
			t.Errorf("-list omits workload %s", wl.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if !strings.Contains(list.String(), m.Name) {
			t.Errorf("-list omits metric %s", m.Name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	write := func(name string, vals []float64, failed float64) string {
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for _, v := range vals {
			rep := report{Workload: wlMetaMix, EndToEnd: map[string]metricValue{
				"alloc_kb_per_op": {Value: num(v), Unit: "KiB"},
				"latency_p50_ms":  {Value: num(v), Unit: "ms"}, // not gated: never a verdict
				"failed_ratio":    {Value: num(failed), Unit: "ratio"},
			}}
			if err := json.NewEncoder(f).Encode(rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	slower := []float64{1.30, 1.31, 1.29, 1.30, 1.32, 1.28}
	noisy := []float64{0.6, 1.4, 1.0, 0.7, 1.3, 1.0}
	for _, c := range []struct {
		name       string
		base, head string
		worse      bool
		verdict    string
	}{
		{"same", write("a", steady, 0), write("b", steady, 0), false, " ok"},
		{"slower", write("a", steady, 0), write("b", slower, 0), true, " worse"},
		{"noisy", write("a", steady, 0), write("b", noisy, 0), false, " unresolved"},
		{"failures", write("a", steady, 0), write("b", steady, 0.01), true, " worse"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, c.base, c.head)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.verdict) || !strings.Contains(out.String(), " not gated") {
			t.Errorf("%s: worse=%v, want %v with verdict%q in:\n%s", c.name, worse, c.worse, c.verdict, out.String())
		}
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	tr := &tracer{epoch: time.Now(), obs: map[string][]float64{}}
	root := &node{name: "client.request", layer: "client", dur: 10 * time.Millisecond}
	front := root.add("httpfront.serve", "httpfront", 8*time.Millisecond)
	front.add("core.query", "core", 5*time.Millisecond)
	legs := front.add("shard.scatter", "shard", 2*time.Millisecond)
	legs.parallel = true
	legs.add("shard.leg", "shard-leg", 2*time.Millisecond)
	legs.add("shard.leg", "shard-leg", time.Millisecond)
	tr.emit(1, root, tr.epoch)
	got := map[string]float64{}
	for _, r := range layerTable(tr.spans) {
		got[r.Layer] = r.SelfMS
	}
	// Overlapping legs cover their parent once, not twice.
	want := map[string]float64{"client": 2, "httpfront": 1, "core": 5, "shard": 0, "shard-leg": 3}
	for layer, ms := range want {
		if math.Abs(got[layer]-ms) > 1e-9 {
			t.Errorf("layer %s self time %g ms, want %g", layer, got[layer], ms)
		}
	}
}
