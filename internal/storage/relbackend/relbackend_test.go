package relbackend

import (
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/relstore"
)

func newBackend(t *testing.T, strat Strategy) *Backend {
	t.Helper()
	b, err := New(relstore.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	b.Strategy = strat
	return b
}

func seqArray(t *testing.T, n int) *array.Array {
	t.Helper()
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	a, err := array.FromFloats(data, n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestStoreOpenRoundTripAllStrategies(t *testing.T) {
	for _, strat := range []Strategy{StrategySingle, StrategyBuffered, StrategySPD} {
		t.Run(strat.String(), func(t *testing.T) {
			b := newBackend(t, strat)
			a := seqArray(t, 500)
			id, err := b.Store(a, 50)
			if err != nil {
				t.Fatal(err)
			}
			back, err := b.Open(id)
			if err != nil {
				t.Fatal(err)
			}
			eq, err := array.Equal(a, back)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

func TestStrategyStatementCounts(t *testing.T) {
	// Access 10 contiguous chunks and compare statements issued.
	counts := map[Strategy]int64{}
	for _, strat := range []Strategy{StrategySingle, StrategyBuffered, StrategySPD} {
		b := newBackend(t, strat)
		b.BufferSize = 4
		id, err := b.Store(seqArray(t, 1000), 10) // 100 chunks
		if err != nil {
			t.Fatal(err)
		}
		a, err := b.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		v, err := a.Deref([]array.Range{array.Span(0, 100)}) // chunks 0..9
		if err != nil {
			t.Fatal(err)
		}
		b.DB.ResetStats()
		if _, err := v.Materialize(); err != nil {
			t.Fatal(err)
		}
		counts[strat] = b.DB.StatsSnapshot().Statements
	}
	if counts[StrategySingle] != 10 {
		t.Fatalf("SINGLE issued %d statements, want 10", counts[StrategySingle])
	}
	if counts[StrategyBuffered] != 3 { // ceil(10/4)
		t.Fatalf("BUFFER issued %d statements, want 3", counts[StrategyBuffered])
	}
	if counts[StrategySPD] != 1 {
		t.Fatalf("SPD issued %d statements, want 1", counts[StrategySPD])
	}
}

func TestSPDStridedUsesModFilter(t *testing.T) {
	b := newBackend(t, StrategySPD)
	id, err := b.Store(seqArray(t, 1000), 10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := b.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	// Every 3rd chunk: single BETWEEN + MOD statement, and exactly the
	// requested chunks return.
	v, err := a.Deref([]array.Range{array.SpanStep(0, 1000, 30)})
	if err != nil {
		t.Fatal(err)
	}
	b.DB.ResetStats()
	sum, err := v.Sum()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < 1000; i += 30 {
		want += float64(i)
	}
	if sum.Float() != want {
		t.Fatalf("sum %v want %v", sum, want)
	}
	st := b.DB.StatsSnapshot()
	if st.Statements != 1 {
		t.Fatalf("statements %d, want 1", st.Statements)
	}
	if st.RowsReturned != 34 { // chunks 0,3,...,99
		t.Fatalf("rows returned %d, want 34", st.RowsReturned)
	}
}

func TestAAPRDelegation(t *testing.T) {
	b := newBackend(t, StrategySPD)
	id, err := b.Store(seqArray(t, 10000), 100)
	if err != nil {
		t.Fatal(err)
	}
	a, err := b.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	b.DB.ResetStats()
	sum, err := a.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Float() != float64(9999*10000/2) {
		t.Fatalf("sum %v", sum)
	}
	st := b.DB.StatsSnapshot()
	if st.Statements != 1 {
		t.Fatalf("statements %d, want 1 aggregate statement", st.Statements)
	}
	// Only the scalar row crossed the boundary, not megabytes of chunks.
	if st.BytesReturned > 1024 {
		t.Fatalf("bytes returned %d — aggregation was not delegated", st.BytesReturned)
	}
}

func TestAAPRDisabledFallsBack(t *testing.T) {
	b := newBackend(t, StrategySPD)
	b.Aggregable = false
	id, err := b.Store(seqArray(t, 1000), 100)
	if err != nil {
		t.Fatal(err)
	}
	a, err := b.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	b.DB.ResetStats()
	sum, err := a.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Float() != float64(999*1000/2) {
		t.Fatalf("sum %v", sum)
	}
	st := b.DB.StatsSnapshot()
	if st.BytesReturned < 1000*array.ElemSize {
		t.Fatalf("expected chunk transfer, got %d bytes", st.BytesReturned)
	}
}

func TestAAPRIntArray(t *testing.T) {
	b := newBackend(t, StrategySPD)
	data := make([]int64, 100)
	for i := range data {
		data[i] = int64(i)
	}
	a, err := array.FromInts(data, 100)
	if err != nil {
		t.Fatal(err)
	}
	id, err := b.Store(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := b.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := opened.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if sum.T != array.Int || sum.I != 4950 {
		t.Fatalf("sum %v", sum)
	}
	mn, _ := opened.Min()
	mx, _ := opened.Max()
	if mn.Intval() != 0 || mx.Intval() != 99 {
		t.Fatalf("min %v max %v", mn, mx)
	}
}

func TestDeleteRemovesArray(t *testing.T) {
	b := newBackend(t, StrategySPD)
	id, err := b.Store(seqArray(t, 100), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(id); err != nil {
		t.Fatal(err)
	}
	if res, err := b.DB.Exec(`SELECT COUNT(*) FROM chunks`); err != nil || res.Rows[0][0].Int() != 0 {
		t.Fatalf("chunks left: %v (%v)", res, err)
	}
	if err := b.Delete(id); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestMetaSurvivesCacheDrop(t *testing.T) {
	b := newBackend(t, StrategySPD)
	id, err := b.Store(seqArray(t, 100), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a fresh SSDM process: metadata cache is cold, so Open
	// must consult the arrays table.
	b.metas = map[int64]*meta{}
	a, err := b.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != 100 {
		t.Fatalf("count %d", a.Count())
	}
	if _, err := b.Open(999); err == nil {
		t.Fatal("unknown id should fail")
	}
}

func TestShapeTextRoundTrip(t *testing.T) {
	shape := []int{3, 4, 5}
	back, err := textToShape(shapeToText(shape))
	if err != nil {
		t.Fatal(err)
	}
	if !array.ShapeEqual(shape, back) {
		t.Fatalf("got %v", back)
	}
	if _, err := textToShape("3xbad"); err == nil {
		t.Fatal("corrupt shape should fail")
	}
}
