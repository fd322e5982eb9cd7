package core

import (
	"testing"
)

// TestCachedQueryNeverReadsStaleIDs: the compiled-query cache stores
// parsed ASTs, and the engine's vectorized plans bake dictionary IDs
// in per execution, re-resolving constants against the graph
// generation. A query cached BEFORE an update must therefore see the
// update's new terms in batch mode — including constants that were
// absent from the dictionary when the text was first compiled.
func TestCachedQueryNeverReadsStaleIDs(t *testing.T) {
	for _, bs := range []int{0, 3, -1} {
		db := Open()
		db.Engine.BatchSize = bs
		if err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:a ex:p 1 .`, ""); err != nil {
			t.Fatal(err)
		}

		// Compile + cache both query texts. The second uses a constant
		// (ex:q / 42) interned only by the later update.
		const qKnown = `PREFIX ex: <http://ex/> SELECT ?s ?v WHERE { ?s ex:p ?v }`
		const qFresh = `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:q 42 }`
		res, err := db.Query(qKnown)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("bs=%d: seed rows = %d, want 1", bs, res.Len())
		}
		res, err = db.Query(qFresh)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 0 {
			t.Fatalf("bs=%d: fresh-constant query returned %d rows before insert", bs, res.Len())
		}

		if _, err := db.Update(`PREFIX ex: <http://ex/>
			INSERT DATA { ex:b ex:p 2 . ex:c ex:q 42 }`); err != nil {
			t.Fatal(err)
		}

		// Both texts hit the compiled-query cache now; the executions
		// must see the post-update dictionary.
		hitsBefore := db.QueryCacheStats().Hits
		res, err = db.Query(qKnown)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2 {
			t.Fatalf("bs=%d: cached query after update: %d rows, want 2 (stale IDs?)", bs, res.Len())
		}
		res, err = db.Query(qFresh)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("bs=%d: cached fresh-constant query after update: %d rows, want 1 (constant not re-resolved?)", bs, res.Len())
		}
		if db.QueryCacheStats().Hits <= hitsBefore {
			t.Fatalf("bs=%d: queries did not come from the compiled-query cache — test lost its point", bs)
		}
	}
}

// TestDictAndVecStatsSurfaced: core-level stats pass-throughs report
// dictionary footprint and vectorized activity.
func TestDictAndVecStatsSurfaced(t *testing.T) {
	db := Open()
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:a ex:p 1 . ex:b ex:p 2 .`, ""); err != nil {
		t.Fatal(err)
	}
	ds := db.DictStats()
	if ds.Terms < 4 || ds.Bytes <= 0 || ds.Generation == 0 {
		t.Fatalf("dict stats not populated: %+v", ds)
	}
	if _, err := db.Query(`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p ?v }`); err != nil {
		t.Fatal(err)
	}
	vs := db.VecStats()
	if vs.Queries == 0 || vs.Rows == 0 {
		t.Fatalf("vec stats did not advance after a vectorizable query: %+v", vs)
	}
}
