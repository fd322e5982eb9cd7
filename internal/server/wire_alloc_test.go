package server

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/rdf"
	"scisparql/internal/ssdmclient"
)

// TestGuardQueryWireBytesPerRow bounds what a query answer costs per row
// on its way over loopback TCP, server and client together: execution,
// encoding, the JSON frame and decoding back into terms. With the answer
// one row table whose arrays are appended straight into a pooled buffer
// and unmarshalled straight from the decoded frame, and the join's
// columns borrowed from the engine's pool, that is 313 B per row of
// three scalars and 33 506 B per row holding a 2 048-float array (117
// of 120 runs each; 320 B and 33 512 B with a fresh column slab per
// join output). At both commits a few runs read about 23 B or 11 KiB
// per row more, and the 11 KiB reading is over the array bound: 3 of
// 120 runs at each commit. As a JSON term per cell it was 1 417 B and
// 160 960 B.
func TestGuardQueryWireBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead is not what this measures")
	}
	// The server's tables are pooled buffers, and the guard reads warm
	// pools: the collector is off (a collection empties them), as for
	// shard's remote gather guard, and one processor holds them all (a
	// pool keeps one private buffer per processor, out of the others'
	// reach).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db := core.Open()
	tx := db.Dataset.Default.Begin()
	for i := 0; i < 2000; i++ {
		s := rdf.IRI(fmt.Sprintf("http://ex/d%d", i))
		tx.Add(s, rdf.IRI("http://ex/year"), rdf.Integer(1990+i%30))
		tx.Add(s, rdf.IRI("http://ex/title"), rdf.String{Val: fmt.Sprintf("title %d", i)})
	}
	data := make([]float64, 2048)
	for i := 0; i < 32; i++ {
		for j := range data {
			data[j] = float64(i*j) / 7
		}
		a, err := array.FromFloats(append([]float64(nil), data...), len(data))
		if err != nil {
			t.Fatal(err)
		}
		tx.Add(rdf.IRI(fmt.Sprintf("http://ex/run%d", i)), rdf.IRI("http://ex/result"), rdf.NewArray(a))
	}
	tx.Commit()
	srv := New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := ssdmclient.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, tc := range []struct {
		name  string
		query string
		rows  int
		bound float64
	}{
		{"scalar rows", `SELECT ?d ?y ?t WHERE { ?d <http://ex/year> ?y ; <http://ex/title> ?t }`, 2000, 360},
		{"2048-float array rows", `SELECT ?r ?a WHERE { ?r <http://ex/result> ?a }`, 32, 38_500},
	} {
		run := func() {
			res, err := cl.Query(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != tc.rows {
				t.Fatalf("%s: %d rows, want %d", tc.name, res.Len(), tc.rows)
			}
		}
		// Compile and cache the query, grow the connection's buffers and
		// fill the pools.
		for range 2 {
			run()
		}
		const runs = 4
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&m1)
		perRow := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs*tc.rows)
		t.Logf("%s: %.0f B per row", tc.name, perRow)
		if perRow > tc.bound {
			t.Errorf("%s: %.0f B per row, want <= %.0f", tc.name, perRow, tc.bound)
		}
	}
}
