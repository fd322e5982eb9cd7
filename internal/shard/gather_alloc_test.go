package shard

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"scisparql/internal/engine"
)

// TestGatherBytesPerRow bounds what a gather query allocates per triple
// streamed back from the shards: a cross-subject join over 4 local
// shards scans two whole predicates (8 000 rows) into the scratch
// graph. Built by one transaction that edits its own trie nodes in
// place, into three indexes that keep one-member sets in their slots,
// this costs ≈ 600 B per row (946 B with four indexes and a pset behind
// every set); with a published version per triple, each path-copying
// all four, it cost 8 101 B.
func TestGatherBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead (≈ 1.5×) is not what this measures")
	}
	const docs = 4000
	node, c := cluster(t, 4)
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
	run() // compile and cache the query
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rows := run()
	runtime.ReadMemStats(&m1)
	if rows != 2*docs {
		t.Fatalf("gathered %d rows, want %d", rows, 2*docs)
	}
	perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rows)
	t.Logf("%.0f B per gathered row", perRow)
	if perRow > 800 {
		t.Errorf("gather allocates %.0f B per row, want <= 800", perRow)
	}
}
