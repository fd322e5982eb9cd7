package shard

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"scisparql/internal/core"
	"scisparql/internal/engine"
)

// TestGuardGatherBytesPerRow bounds what a gather query allocates per
// triple streamed back from the shards: a cross-subject join over 4
// local shards scans two whole predicates (8 000 rows) into the scratch
// graph. With the legs collecting ID triples into pooled buffers,
// rdf.Graph.Build keeping each permutation as one sorted run of rows
// once they return, the scratch dictionary keyed by each term's own
// value, the scratch dataset recycled between gathers
// (rdf.Graph.Reset), and the coordinator engine's join columns borrowed
// from a pool for each run, this costs 47 B per row (forty runs, every
// one the same). With a fresh column slab per join output per execution
// it was 49 B; before the dataset was recycled 171–247 B; with the three
// permutations built as tries, every node allocated at its final size,
// 321–456 B; with a Key() string built per interned cell as well,
// 362–496 B; inserted one row at a time by a transaction editing its
// own trie nodes in place, 591 B.
//
// The collector is off, as for the remote twin below: a collection
// empties the pools, and one that strikes between the warm-up and the
// measured run makes the reading a cold one, 235 B (247 B before the
// recycling).
func TestGuardGatherBytesPerRow(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	node, c := cluster(t, 4)
	if perRow := gatherBytesPerRow(t, node, c); perRow > 55 {
		t.Errorf("gather allocates %.0f B per row, want <= 55", perRow)
	}
}

// TestGuardRemoteGatherBytesPerRow is the same join over four loopback
// servers, so the bytes include both ends of every leg: the peer's scan
// and table encoding, the JSON frame, and the coordinator's decoding.
// With each leg one row table decoded through a pooled term list, the
// scratch dataset recycled and the engine's join columns pooled, that is
// 97–119 B per row (forty runs; 99–125 with a fresh
// column slab per join output, so the bound stays above that spread);
// before the recycling 245–281 B, with the graph built as
// three tries 395–491 B, with a Key() string per interned cell as well
// 437–543 B, with the graph built by a transaction 692 B.
//
// The collector is off for this test: the peers' table buffers and the
// coordinator's scratch are pooled, a collection empties the pools, and
// with one running 2 of 40 readings were 776 B (691-732 B without)
// before the one-pass build. The guard therefore reads warm pools; what
// refilling them costs under a real collector is the benchmark's to show
// (alloc_kb_per_op on sharded-mix, EXPERIMENTS.md).
func TestGuardRemoteGatherBytesPerRow(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	node, c, _ := remoteCluster(t, 4)
	if perRow := gatherBytesPerRow(t, node, c); perRow > 125 {
		t.Errorf("remote gather allocates %.0f B per row, want <= 125", perRow)
	}
}

// gatherBytesPerRow loads 4 000 documents through the coordinator, runs
// a cross-subject join that gathers two whole predicates, and returns
// the bytes the process allocated per gathered triple on a warm run.
func gatherBytesPerRow(t *testing.T, node *core.SSDM, c *Coordinator) float64 {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead (≈ 1.5×) is not what this measures")
	}
	const docs = 4000
	var sb strings.Builder
	sb.WriteString("PREFIX ex: <http://ex/> INSERT DATA {\n")
	for i := 0; i < docs; i++ {
		fmt.Fprintf(&sb, "ex:d%d ex:cites ex:d%d ; ex:year %d ; ex:title \"t%d\" .\n", i, (i*7+1)%docs, 1990+i%30, i)
	}
	sb.WriteString("}")
	if _, err := node.Update(sb.String()); err != nil {
		t.Fatal(err)
	}
	const query = `PREFIX ex: <http://ex/> SELECT ?a ?y WHERE { ?a ex:cites ?b . ?b ex:year ?y }`
	run := func() (rows int64) {
		before := c.Stats()
		res, err := node.QueryLimits(context.Background(), query, engine.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != docs {
			t.Fatalf("join returned %d rows, want %d", len(res.Rows), docs)
		}
		after := c.Stats()
		if after.GatherQueries != before.GatherQueries+1 {
			t.Fatal("the query did not take the gather path")
		}
		for i := range after.PerShard {
			rows += after.PerShard[i].Rows - before.PerShard[i].Rows
		}
		return rows
	}
	// One processor, so the measured run finds what the warm-up put back:
	// a pool keeps one private object per processor, out of the others'
	// reach.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run() // compile and cache the query, fill the pools
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rows := run()
	runtime.ReadMemStats(&m1)
	if rows != 2*docs {
		t.Fatalf("gathered %d rows, want %d", rows, 2*docs)
	}
	perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rows)
	t.Logf("%.0f B per gathered row", perRow)
	return perRow
}

// TestGatherDropsOversizedScratch: a gather of more than maxPooledRows
// rows leaves no scratch of its size in the pools for the next gather.
// A collection moves what the pools hold to their victim caches without
// freeing it, so the live heap right after one still counts it. What is
// left is three legs' buffers of about 17 000 rows each, ≈ 690 KiB;
// keeping the fourth, into which the legs are gathered, reads ≈ 1 580
// KiB, and keeping the dataset's dictionary and runs as well ≈ 12 MiB.
func TestGatherDropsOversizedScratch(t *testing.T) {
	node, c := cluster(t, 4)
	const docs = maxPooledRows + 4000
	var sb strings.Builder
	sb.WriteString("PREFIX ex: <http://ex/> INSERT DATA {\n")
	for i := range docs {
		fmt.Fprintf(&sb, "ex:s%d ex:p %d .\n", i, i)
	}
	sb.WriteString("}")
	if _, err := node.Update(sb.String()); err != nil {
		t.Fatal(err)
	}
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	gather := func() {
		t.Helper()
		gathers := c.Stats().GatherQueries
		res, err := node.Query(`PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?s ex:p ?o . ?o ex:p ?z }`)
		if err != nil {
			t.Fatal(err)
		}
		if c.Stats().GatherQueries != gathers+1 || len(res.Rows) != 1 {
			t.Fatalf("the join did not gather (%d rows)", len(res.Rows))
		}
	}
	gather()
	live() // a second collection empties the victim caches
	before := live()
	gather()
	kept := live() - before
	runtime.KeepAlive(node) // the shards' data counts on both sides
	t.Logf("a %d-row gather left %d KiB in the pools", docs, kept>>10)
	if kept > 1<<20 {
		t.Errorf("a %d-row gather left more than 1 MiB in the pools", docs)
	}
}
