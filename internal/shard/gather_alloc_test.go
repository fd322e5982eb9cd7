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
// graph. With the legs collecting ID triples into pooled buffers and
// rdf.Graph.Build laying out the three indexes once after they return,
// every node allocated at its final size, this costs 362–496 B per row
// (forty runs; where in that range a run reads depends on whether a
// collection has just emptied the pools). Inserted one row at a time
// by a transaction editing its own trie nodes in place it cost 591 B.
func TestGuardGatherBytesPerRow(t *testing.T) {
	node, c := cluster(t, 4)
	if perRow := gatherBytesPerRow(t, node, c); perRow > 570 {
		t.Errorf("gather allocates %.0f B per row, want <= 570", perRow)
	}
}

// TestGuardRemoteGatherBytesPerRow is the same join over four loopback
// servers, so the bytes include both ends of every leg: the peer's scan
// and batch encoding, the JSON frame, and the coordinator's decoding.
// With each leg one dictionary-coded batch and the scratch graph built
// in one pass, that is 463–533 B per row (forty runs); with the graph
// built by a transaction it was 692 B.
//
// The collector is off for this test only: the peers' batch buffers are
// pooled, a collection empties the pools, and with one running 2 of 40
// readings were 776 B (691-732 B without) before the one-pass build.
// The guard therefore reads warm pools; what refilling them costs under
// a real collector is the benchmark's to show (alloc_kb_per_op on
// sharded-mix, EXPERIMENTS.md).
func TestGuardRemoteGatherBytesPerRow(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	node, c := remoteCluster(t, 4)
	if perRow := gatherBytesPerRow(t, node, c); perRow > 615 {
		t.Errorf("remote gather allocates %.0f B per row, want <= 615", perRow)
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
