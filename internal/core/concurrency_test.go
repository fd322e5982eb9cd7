package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/storage"
)

// TestConcurrentQueriesAndUpdates is the SSDM-level stress test: many
// goroutines run read-only queries while others push updates, Turtle
// loads and array publications through the write path, on an instance
// without a log and on one with (whose loads intern into the target's
// dictionary through a stage while readers resolve it). Under -race it
// exercises the operation lock classification end to end; the
// assertions check that every query observes a statement-atomic
// dataset (each ex:runN is seen with all of its triples or none).
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	t.Run("plain", func(t *testing.T) { concurrentQueriesAndUpdates(t, Open()) })
	t.Run("durable", func(t *testing.T) {
		db := openWAL(t, t.TempDir(), nil)
		defer db.CloseWAL()
		concurrentQueriesAndUpdates(t, db)
	})
}

func concurrentQueriesAndUpdates(t *testing.T, db *SSDM) {
	db.AttachBackend(storage.NewMemory())

	// A stable core the readers can always count on.
	stable := `@prefix ex: <http://ex/> .` + "\n"
	for i := 0; i < 50; i++ {
		stable += fmt.Sprintf("ex:base%d a ex:Stable ; ex:val %d .\n", i, i)
	}
	if err := db.LoadTurtle(stable, ""); err != nil {
		t.Fatal(err)
	}

	const (
		readers  = 6
		writers  = 3
		perGoro  = 60
		arrayLen = 64
	)
	var wg sync.WaitGroup

	// Writers: each publishes runs via INSERT DATA (two triples per
	// statement, so partial visibility would be detectable), Turtle
	// loads and array triples.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				id := w*perGoro + i
				switch i % 3 {
				case 0:
					_, err := db.Update(fmt.Sprintf(
						`PREFIX ex: <http://ex/> INSERT DATA { ex:run%d a ex:Run ; ex:tag %d }`, id, id))
					if err != nil {
						t.Error(err)
						return
					}
				case 1:
					err := db.LoadTurtle(fmt.Sprintf(
						"@prefix ex: <http://ex/> .\nex:run%d a ex:Run ; ex:tag %d .\n", id, id), "")
					if err != nil {
						t.Error(err)
						return
					}
				default:
					data := make([]float64, arrayLen)
					for j := range data {
						data[j] = float64(id)
					}
					a, err := array.FromFloats(data, arrayLen)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := db.WriteTriples(context.Background(), [][]rdf.Term{{rdf.IRI(fmt.Sprintf("http://ex/arr%d", id)), rdf.IRI("http://ex/data"), rdf.NewArray(a)}}, false); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	// Readers: queries over the stable core must always see all 50
	// rows; queries over the growing part must see runs atomically.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				res, err := db.Query(`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Stable }`)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != 50 {
					t.Errorf("stable rows %d, want 50", res.Len())
					return
				}
				// Statement atomicity: every inserted run has both its
				// type and its tag triple.
				res, err = db.Query(`PREFIX ex: <http://ex/>
SELECT ?s WHERE { ?s a ex:Run . FILTER NOT EXISTS { ?s ex:tag ?t } }`)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != 0 {
					t.Errorf("saw %d half-inserted runs", res.Len())
					return
				}
				var sink io.Writer = io.Discard
				if err := db.WriteTurtle(sink, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	res, err := db.Query(`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Run }`)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for w := 0; w < writers; w++ {
		for i := 0; i < perGoro; i++ {
			if i%3 != 2 {
				want++
			}
		}
	}
	if res.Len() != want {
		t.Fatalf("final runs %d, want %d", res.Len(), want)
	}
}

// TestConcurrentPreparedAndExecute mixes prepared-query execution and
// Execute scripts (whose statements classify per statement) under
// concurrent updates.
func TestConcurrentPreparedAndExecute(t *testing.T) {
	db := Open()
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:s ex:v 1 .`, ""); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(`PREFIX ex: <http://ex/> SELECT ?x WHERE { ex:s ex:v ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := prep.Exec(nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_, err := db.Execute(fmt.Sprintf(`PREFIX ex: <http://ex/>
INSERT DATA { ex:s ex:round %d } ;
SELECT ?x WHERE { ex:s ex:v ?x }`, i))
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	res, err := db.Query(`PREFIX ex: <http://ex/> SELECT ?r WHERE { ex:s ex:round ?r }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 50 {
		t.Fatalf("rounds %d, want 50", res.Len())
	}
}
