package scisparql

import (
	"context"
	"testing"
)

// The public-API tests exercise the library exactly as the examples
// and README do.

func TestPublicQuickstart(t *testing.T) {
	db := Open()
	err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:m ex:data ((1 2) (3 4)) .`, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`PREFIX ex: <http://ex/> SELECT (asum(?a[1,:]) AS ?row) WHERE { ex:m ex:data ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "row") != Integer(3) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestPublicArrayConstruction(t *testing.T) {
	a, err := NewFloatArray([]float64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	db := Open()
	if _, err := db.WriteTriples(context.Background(), [][]Term{{IRI("http://ex/s"), IRI("http://ex/p"), NewArrayTerm(a)}}, false); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT (?a[2,2] AS ?v) WHERE { <http://ex/s> <http://ex/p> ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "v") != Float(4) {
		t.Fatalf("%v", res.Rows)
	}
	if _, err := NewIntArray([]int64{1, 2}, 3); err == nil {
		t.Fatal("shape mismatch should fail")
	}
}

func TestPublicBackends(t *testing.T) {
	for _, mk := range []func(t *testing.T) Backend{
		func(*testing.T) Backend { return NewMemoryBackend() },
		func(t *testing.T) Backend {
			be, err := NewFileBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return be
		},
		func(t *testing.T) Backend {
			be, err := NewRelationalBackend(StrategySPD)
			if err != nil {
				t.Fatal(err)
			}
			return be
		},
	} {
		db := Open()
		if err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:m ex:d (1 2 3 4 5) .`, ""); err != nil {
			t.Fatal(err)
		}
		db.AttachBackend(mk(t))
		if _, err := db.Externalize(); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(`PREFIX ex: <http://ex/> SELECT (asum(?a) AS ?s) WHERE { ex:m ex:d ?a }`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Get(0, "s") != Integer(15) {
			t.Fatalf("%v", res.Rows)
		}
	}
}

func TestPublicForeignFunction(t *testing.T) {
	db := Open()
	db.RegisterForeign("answer", 0, 0, func([]Term) (Term, error) {
		return Integer(42), nil
	})
	res, err := db.Query(`SELECT (answer() AS ?v) WHERE {}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "v") != Integer(42) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestPublicOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.ConsolidateCollections = false
	db := OpenWith(opts)
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:m ex:d (1 2) .`, ""); err != nil {
		t.Fatal(err)
	}
	if db.Dataset.Default.Size() == 1 {
		t.Fatal("consolidation should be off")
	}
}

func TestPublicRDFStorePersistence(t *testing.T) {
	// Persist a whole RDF-with-Arrays graph relationally, restore it
	// into a fresh database, and query it.
	store, err := NewRDFStore()
	if err != nil {
		t.Fatal(err)
	}
	db := Open()
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> .
ex:run ex:label "x" ; ex:series (1 2 3 4) .`, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveGraph(db.Dataset.Default, 2); err != nil {
		t.Fatal(err)
	}

	db2 := Open()
	if _, err := store.LoadGraph(db2.Dataset.Default); err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query(`PREFIX ex: <http://ex/>
SELECT (asum(?s) AS ?total) WHERE { ?r ex:label "x" ; ex:series ?s }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "total") != Integer(10) {
		t.Fatalf("%v", res.Rows)
	}
}
