package experiments

import "testing"

// testOptions is the printed scale with the simulated link off and one
// query per cell: the counters the tests assert depend on neither, and
// no test here looks at a time column.
func testOptions(t *testing.T) Options {
	t.Helper()
	o := DefaultOptions(t.TempDir())
	o.rtt, o.bandwidth, o.iters = 0, 0, 1
	return o
}

// TestE1StatementsPerStrategy: SINGLE issues one statement per chunk
// touched, BUFFER and SPD collapse a regular pattern to one, and the
// single-chunk patterns cost one statement under every strategy.
func TestE1StatementsPerStrategy(t *testing.T) {
	o := testOptions(t)
	rows, err := E1(o)
	if err != nil {
		t.Fatal(err)
	}
	chunks := int64(o.workload.elements() * 8 / o.workload.ChunkBytes) // 64
	want := map[string][3]int64{
		"full":    {chunks, 1, 1},
		"stride":  {chunks, 1, 1},
		"column":  {chunks, 1, 1},
		"slice":   {chunks / 4, 1, 1},
		"element": {1, 1, 1},
		"row":     {1, 1, 1},
	}
	if len(rows) != len(allPatterns) {
		t.Fatalf("%d rows, want one per pattern (%d)", len(rows), len(allPatterns))
	}
	for _, r := range rows {
		if w, ok := want[r.Pattern]; ok && r.Statements != w {
			t.Errorf("%s: statements single/buffer/spd = %v, want %v", r.Pattern, r.Statements, w)
		}
		// random: scattered elements, so only the ordering is fixed.
		if r.Statements[1] != 1 || r.Statements[2] > r.Statements[0] {
			t.Errorf("%s: statements %v: BUFFER should need 1 and SPD no more than SINGLE", r.Pattern, r.Statements)
		}
	}
}

// TestE2StatementsFallWithBuffer: a larger IN-list buffer never needs
// more statements, and once the bag fits it needs one.
func TestE2StatementsFallWithBuffer(t *testing.T) {
	rows, err := E2(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Buffer != 1 || rows[0].Statements < 2 {
		t.Fatalf("buffer 1 should issue one statement per distinct chunk: %+v", rows[0])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Statements > rows[i-1].Statements {
			t.Errorf("buffer %d issues %d statements, more than buffer %d's %d",
				rows[i].Buffer, rows[i].Statements, rows[i-1].Buffer, rows[i-1].Statements)
		}
	}
	if last := rows[len(rows)-1]; last.Statements != 1 {
		t.Errorf("buffer %d should hold the whole bag in one statement, got %d", last.Buffer, last.Statements)
	}
}

// TestE3BytesByChunkSize: a full scan transfers the array whatever the
// chunk size (only the per-row key overhead shrinks), while a point
// access transfers one whole chunk, so its bytes grow with chunk size.
func TestE3BytesByChunkSize(t *testing.T) {
	o := testOptions(t)
	rows, err := E3(o)
	if err != nil {
		t.Fatal(err)
	}
	payload := int64(o.workload.elements() * 8)
	for i, r := range rows {
		if r.FullBytes < payload || r.FullBytes > payload+payload/50 {
			t.Errorf("chunk %d: full scan moved %d B, want the %d B array within 2%%", r.ChunkBytes, r.FullBytes, payload)
		}
		if r.ElementBytes < int64(r.ChunkBytes) || r.ElementBytes > int64(r.ChunkBytes)+payload/50 {
			t.Errorf("chunk %d: element access moved %d B, want one chunk", r.ChunkBytes, r.ElementBytes)
		}
		if i > 0 && r.ElementBytes <= rows[i-1].ElementBytes {
			t.Errorf("chunk %d: element bytes %d do not grow past chunk %d's %d",
				r.ChunkBytes, r.ElementBytes, rows[i-1].ChunkBytes, rows[i-1].ElementBytes)
		}
	}
}

// TestE4SameAnswersEverywhere: every application query returns the same
// number of rows wherever the arrays live, and the metadata-only Q1
// never reaches the array store.
func TestE4SameAnswersEverywhere(t *testing.T) {
	rows, err := E4(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want Q1..Q4", len(rows))
	}
	for _, r := range rows {
		if r.Rows[0] == 0 || r.Rows[1] != r.Rows[0] || r.Rows[2] != r.Rows[0] {
			t.Errorf("%s: rows resident/file/sql = %v, want equal and non-zero", r.Query, r.Rows)
		}
		if meta := r.Query == "Q1"; meta != (r.Statements == 0) {
			t.Errorf("%s: %d SQL statements; only the metadata-only Q1 should issue none", r.Query, r.Statements)
		}
	}
}

// TestE5ConsolidationShrinksGraph: 16 matrices of 24×24 are 16 triples
// as arrays and more than two per element as nested collections, and
// reaching one element is one binding instead of a chain of hops.
func TestE5ConsolidationShrinksGraph(t *testing.T) {
	rows, err := E5(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	raw, consolidated := rows[0], rows[1]
	if consolidated.Triples != 16 || raw.Triples <= 2*16*24*24 {
		t.Errorf("graph triples raw %d, consolidated %d; want > %d and 16", raw.Triples, consolidated.Triples, 2*16*24*24)
	}
	if consolidated.Bindings != 1 || raw.Bindings <= 1 {
		t.Errorf("bindings per element access raw %d, consolidated %d; want several and 1", raw.Bindings, consolidated.Bindings)
	}
}

// TestE6RoundTrips: publishing a run is two round trips (array, then
// metadata), and the selective query is one, returning only the runs
// the metadata filter keeps (temperature 270+i >= 280, i = 10..16).
func TestE6RoundTrips(t *testing.T) {
	rows, err := E6(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	publish, retrieve := rows[0], rows[1]
	if publish.Items != 16 || publish.RoundTrips != 2*16 {
		t.Errorf("publish: %+v, want 16 runs in 32 round trips", publish)
	}
	if retrieve.RoundTrips != 1 || retrieve.Items != 7 {
		t.Errorf("retrieve: %+v, want 7 slices in 1 round trip", retrieve)
	}
}

// TestE7FetchesScaleWithData: the metadata query fetches no chunk at
// any size; the array-bound queries fetch in proportion to the tasks,
// and Q4 returns one row per case.
func TestE7FetchesScaleWithData(t *testing.T) {
	rows, err := E7(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Chunks[0] != 0 {
			t.Errorf("%d cases: metadata-only Q1 fetched %d chunks", r.Cases, r.Chunks[0])
		}
		if r.Rows[2] != r.Cases {
			t.Errorf("%d cases: Q4 returned %d rows, want one per case", r.Cases, r.Rows[2])
		}
		for q := 1; q <= 2; q++ {
			if r.Chunks[q] == 0 || r.Chunks[q]%int64(r.Tasks) != 0 {
				t.Errorf("%d cases: query %d fetched %d chunks, want a multiple of %d tasks", r.Cases, q, r.Chunks[q], r.Tasks)
			}
			if i > 0 && r.Chunks[q]*int64(rows[0].Tasks) != rows[0].Chunks[q]*int64(r.Tasks) {
				t.Errorf("%d cases: query %d fetched %d chunks, not proportional to %d chunks for %d tasks",
					r.Cases, q, r.Chunks[q], rows[0].Chunks[q], rows[0].Tasks)
			}
		}
	}
}

// TestA1CostOrderTouchesFewerBindings: same answer, fewer intermediate
// bindings than the textual order's cross product.
func TestA1CostOrderTouchesFewerBindings(t *testing.T) {
	rows, err := A1(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	cost, textual := rows[0], rows[1]
	if cost.Rows == 0 || cost.Rows != textual.Rows {
		t.Fatalf("rows differ: cost-based %d, textual %d", cost.Rows, textual.Rows)
	}
	if cost.Bindings >= textual.Bindings {
		t.Fatalf("cost-based order produced %d bindings, textual %d; want fewer", cost.Bindings, textual.Bindings)
	}
}

// TestA2SPDIsOneStatement: SPD answers a strided access with one range
// statement at every stride; SINGLE pays one per chunk touched.
func TestA2SPDIsOneStatement(t *testing.T) {
	rows, err := A2(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Statements[1] != 1 || r.Statements[0] <= 1 {
			t.Errorf("stride %d: statements single/spd = %v, want many/1", r.Stride, r.Statements)
		}
	}
}

// TestA3DelegatedAggregateMovesOneRow: with AAPR one 32-byte aggregate
// row crosses the storage boundary, without it the whole array.
func TestA3DelegatedAggregateMovesOneRow(t *testing.T) {
	o := testOptions(t)
	rows, err := A3(o)
	if err != nil {
		t.Fatal(err)
	}
	if delegated := rows[0].Bytes; delegated != 32 {
		t.Errorf("delegated aggregate moved %d B, want 32", delegated)
	}
	if clientSide, payload := rows[1].Bytes, int64(o.workload.elements()*8); clientSide < payload {
		t.Errorf("client-side aggregate moved %d B, want at least the %d B array", clientSide, payload)
	}
}
