package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"scisparql/internal/rdf"
	"scisparql/internal/relstore"
	"scisparql/internal/storage"
	"scisparql/internal/storage/relbackend"
)

func smallWorkload() workload {
	return workload{NumArrays: 2, Rows: 16, Cols: 16, ChunkBytes: 256, Seed: 1}
}

func TestBuildResident(t *testing.T) {
	w := smallWorkload()
	db, err := build(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.Dataset.Default.Size() != 2*w.NumArrays {
		t.Fatalf("size %d", db.Dataset.Default.Size())
	}
}

func TestAllPatternsRunOnAllBackends(t *testing.T) {
	w := smallWorkload()
	backends := map[string]storage.Backend{
		"resident": nil,
		"memory":   storage.NewMemory(),
	}
	rb, err := relbackend.New(relstore.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	backends["sql"] = rb
	for name, be := range backends {
		t.Run(name, func(t *testing.T) {
			db, err := build(w, be)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range allPatterns {
				for id := 1; id <= w.NumArrays; id++ {
					if err := run(db, p, id, w, 4, 42); err != nil {
						t.Fatalf("%s on %s: %v", p, name, err)
					}
				}
			}
		})
	}
}

func TestResidentAndExternalAgree(t *testing.T) {
	w := smallWorkload()
	dbRes, err := build(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	dbExt, err := build(w, storage.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	rng1 := rand.New(rand.NewSource(5))
	rng2 := rand.New(rand.NewSource(5))
	for _, p := range allPatterns {
		q1 := query(p, 1, w, 3, rng1)
		q2 := query(p, 1, w, 3, rng2)
		if q1 != q2 {
			t.Fatalf("generator not deterministic for %s", p)
		}
		r1, err := dbRes.Query(q1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := dbExt.Query(q2)
		if err != nil {
			t.Fatal(err)
		}
		v1, _ := rdf.Numeric(r1.Get(0, "v"))
		v2, _ := rdf.Numeric(r2.Get(0, "v"))
		if v1.Float() != v2.Float() {
			t.Fatalf("%s: resident %v != external %v", p, v1, v2)
		}
	}
}

func TestQueryShapes(t *testing.T) {
	w := smallWorkload()
	rng := rand.New(rand.NewSource(1))
	if !strings.Contains(query(patStride, 1, w, 4, rng), "1:4:16") {
		t.Fatal("stride query malformed")
	}
	if !strings.Contains(query(patSlice, 1, w, 4, rng), "1:4,") {
		t.Fatalf("slice query malformed: %s", query(patSlice, 1, w, 4, rand.New(rand.NewSource(1))))
	}
	q := query(patRandom, 1, w, 3, rng)
	if strings.Count(q, "?a[") != 3 {
		t.Fatalf("random query should have 3 derefs: %s", q)
	}
}

func TestPatternNames(t *testing.T) {
	for _, p := range allPatterns {
		if strings.Contains(p.String(), "pattern(") {
			t.Fatalf("missing name for %d", p)
		}
	}
}
