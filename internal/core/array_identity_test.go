package core

import (
	"testing"
)

// arrayDB is an instance holding a five-element vector and a 2x2 matrix.
func arrayDB(t *testing.T) *SSDM {
	t.Helper()
	db := Open()
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> .
ex:m ex:data (1 2 3 4 5) ; ex:sq ((1 2) (3 4)) .`, ""); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestInsertKeepsViewStrides: two views over one base with the same
// offset and shape but other strides are different terms, so stored by
// an INSERT, ?v[1:2:5] (every other element) stays [1 3 5], not the
// contiguous [1 2 3] of the same base, offset and shape.
func TestInsertKeepsViewStrides(t *testing.T) {
	db := arrayDB(t)
	if _, err := db.Update(`PREFIX ex: <http://ex/>
INSERT { ex:m ex:a ?x . ex:m ex:b ?y } WHERE { ex:m ex:data ?v BIND(?v[1:3] AS ?x) BIND(?v[1:2:5] AS ?y) }`); err != nil {
		t.Fatal(err)
	}
	for p, want := range map[string]string{"a": "[1 2 3]", "b": "[1 3 5]"} {
		res, err := db.Query(`PREFIX ex: <http://ex/> SELECT ?y WHERE { ex:m ex:` + p + ` ?y }`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || res.Get(0, "y").String() != want {
			t.Fatalf("ex:%s holds %v, want %s", p, res.Rows, want)
		}
	}
}

// TestDistinctKeepsTranspose: DISTINCT keeps a square matrix apart from
// its transpose, a view of the same base, offset and shape.
func TestDistinctKeepsTranspose(t *testing.T) {
	db := arrayDB(t)
	res, err := db.Query(`PREFIX ex: <http://ex/>
SELECT DISTINCT ?y WHERE { ex:m ex:sq ?v { BIND(?v AS ?y) } UNION { BIND(transpose(?v) AS ?y) } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("DISTINCT over a matrix and its transpose: %v, want 2 rows", res.Rows)
	}
}
