package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"scisparql/internal/rdf"
)

// TestGuardRecoveryPinsNoRecordBytes: a recovered store keeps copies of
// the texts it interned, not the log segments and the image they were
// read from. The store is a checkpoint image of 200 literals of 4 KiB
// plus a log that deletes and re-adds them four times — every record
// ships the texts again, none of them new to the dictionary — and adds
// one small triple per round, whose new terms alone would pin their
// segment. Its heap after recovery is bounded against the same triples
// written through WriteTriples into a fresh instance: forty readings
// all read 1.00× (7.07× with the copy taken out of replay).
func TestGuardRecoveryPinsNoRecordBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead is not what this measures")
	}
	const n, rounds = 200, 4
	// Each call makes new texts, so that an instance written from them
	// owns them and nothing else does.
	texts := func() [][]rdf.Term {
		rows := make([][]rdf.Term, n)
		for i := range rows {
			rows[i] = []rdf.Term{rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/text"),
				rdf.String{Val: fmt.Sprintf("%d %s", i, strings.Repeat("x", 4096))}}
		}
		return rows
	}
	marker := func(r int) [][]rdf.Term {
		return [][]rdf.Term{{rdf.IRI(fmt.Sprintf("http://ex/round%d", r)), rdf.IRI("http://ex/round"), rdf.String{Val: fmt.Sprint(r)}}}
	}
	write := func(db *SSDM, rows [][]rdf.Term, del bool) {
		t.Helper()
		if _, err := db.WriteTriples(context.Background(), rows, del); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	write(db, texts(), false)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for r := range rounds {
		write(db, texts(), true)
		write(db, texts(), false)
		write(db, marker(r), false)
	}
	db.CloseWAL()

	base := heap()
	fresh := Open()
	write(fresh, texts(), false)
	for r := range rounds {
		write(fresh, marker(r), false)
	}
	written := heap() - base

	base = heap()
	rec := openWAL(t, dir, nil)
	recovered := heap() - base
	defer rec.CloseWAL()
	if rec.Dataset.Default.Size() != n+rounds || fresh.Dataset.Default.Size() != n+rounds {
		t.Fatalf("recovered %d triples and wrote %d, want %d", rec.Dataset.Default.Size(), fresh.Dataset.Default.Size(), n+rounds)
	}
	ratio := float64(recovered) / float64(written)
	t.Logf("recovered %d B, written %d B: %.2f×", recovered, written, ratio)
	if ratio > 1.25 {
		t.Errorf("a recovered store takes %.2f× the heap of the same triples written (%d vs %d B): it pins the records it was read from", ratio, recovered, written)
	}
}
