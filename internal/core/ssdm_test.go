package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/relstore"
	"scisparql/internal/storage"
	"scisparql/internal/storage/relbackend"
)

func TestLoadAndQueryWithConsolidation(t *testing.T) {
	db := Open()
	err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:m ex:data ((1 2) (3 4)) .`, "")
	if err != nil {
		t.Fatal(err)
	}
	if db.Dataset.Default.Size() != 1 {
		t.Fatalf("size %d, want consolidated 1", db.Dataset.Default.Size())
	}
	res, err := db.Query(`PREFIX ex: <http://ex/> SELECT (?a[2,1] AS ?v) WHERE { ex:m ex:data ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "v") != rdf.Float(3) && res.Get(0, "v") != rdf.Integer(3) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestConsolidationCanBeDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.ConsolidateCollections = false
	db := OpenWith(opts)
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:m ex:data (1 2) .`, ""); err != nil {
		t.Fatal(err)
	}
	if db.Dataset.Default.Size() != 5 {
		t.Fatalf("size %d, want 5 raw triples", db.Dataset.Default.Size())
	}
}

func TestExecuteMixedStatements(t *testing.T) {
	db := Open()
	results, err := db.Execute(`
PREFIX ex: <http://ex/>
INSERT DATA { ex:s ex:v 1 , 2 , 3 } ;
SELECT (SUM(?v) AS ?total) WHERE { ex:s ex:v ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results %d", len(results))
	}
	if results[0].Get(0, "total") != rdf.Integer(6) {
		t.Fatalf("%v", results[0].Rows)
	}
}

func TestDefinePersistsAcrossExecutes(t *testing.T) {
	db := Open()
	if _, err := db.Execute(`DEFINE FUNCTION sq(?x) AS ?x * ?x`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT (sq(7) AS ?v) WHERE {}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "v") != rdf.Integer(49) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestLoadStatement(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.ttl")
	os.WriteFile(path, []byte(`@prefix ex: <http://ex/> . ex:s ex:p 42 .`), 0o644)
	db := Open()
	if _, err := db.Execute(`LOAD <` + path + `>`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`PREFIX ex: <http://ex/> SELECT ?v WHERE { ex:s ex:p ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != rdf.Integer(42) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestLoadIntoNamedGraph(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.ttl")
	os.WriteFile(path, []byte(`@prefix ex: <http://ex/> . ex:s ex:p 1 .`), 0o644)
	db := Open()
	if _, err := db.Execute(`LOAD <` + path + `> INTO GRAPH <http://ex/g>`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT ?v WHERE { GRAPH <http://ex/g> { ?s ?p ?v } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestBackendExternalizeAndQuery(t *testing.T) {
	db := Open()
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:m ex:data ((1 2 3) (4 5 6)) .`, ""); err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemory()
	db.AttachBackend(mem)
	n, err := db.Externalize()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("externalized %d", n)
	}
	res, err := db.Query(`PREFIX ex: <http://ex/> SELECT (asum(?a[2,:]) AS ?s) WHERE { ex:m ex:data ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := rdf.Numeric(res.Get(0, "s")); !ok || n.Float() != 15 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestRelationalBackendEndToEnd(t *testing.T) {
	db := Open()
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:m ex:data (1 2 3 4 5 6 7 8 9 10) .`, ""); err != nil {
		t.Fatal(err)
	}
	rb, err := relbackend.New(relstore.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	db.AttachBackend(rb)
	db.Opts.ChunkBytes = 2 * array.ElemSize // tiny chunks for coverage
	if _, err := db.Externalize(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`PREFIX ex: <http://ex/>
SELECT (?a[3] AS ?third) (asum(?a) AS ?sum) WHERE { ex:m ex:data ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	third := res.Get(0, "third")
	if n, ok := rdf.Numeric(third); !ok || n.Intval() != 3 {
		t.Fatalf("third %v", third)
	}
	sum := res.Get(0, "sum")
	if n, ok := rdf.Numeric(sum); !ok || n.Intval() != 55 {
		t.Fatalf("sum %v", sum)
	}
}

func TestStoreArrayAndAddTriple(t *testing.T) {
	db := Open()
	mem := storage.NewMemory()
	db.AttachBackend(mem)
	a, _ := array.FromFloats([]float64{1, 2, 3}, 3)
	if _, err := db.WriteTriples(context.Background(), [][]rdf.Term{{rdf.IRI("http://ex/s"), rdf.IRI("http://ex/data"), rdf.NewArray(a)}}, false); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`PREFIX ex: <http://ex/> SELECT (acount(?a) AS ?n) WHERE { ex:s ex:data ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "n") != rdf.Integer(3) {
		t.Fatalf("%v", res.Rows)
	}
	if _, err := db.StoreArray(a); err != nil {
		t.Fatal(err)
	}
}

func TestStoreArrayWithoutBackendFails(t *testing.T) {
	db := Open()
	a, _ := array.FromFloats([]float64{1}, 1)
	if _, err := db.StoreArray(a); err == nil {
		t.Fatal("expected error")
	}
	if _, err := db.Externalize(); err == nil {
		t.Fatal("expected error")
	}
}

func TestFileLinkResolutionOnLoad(t *testing.T) {
	db := Open()
	mem := storage.NewMemory()
	db.AttachBackend(mem)
	a, _ := array.FromFloats([]float64{9, 8, 7}, 3)
	id, err := mem.Store(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	ttl := `@prefix ex: <http://ex/> .
@prefix ssdm: <http://udbl.uu.se/ssdm#> .
ex:s ex:data "` + itoa(id) + `"^^ssdm:fileLink .`
	if err := db.LoadTurtle(ttl, ""); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`PREFIX ex: <http://ex/> SELECT (?a[1] AS ?v) WHERE { ex:s ex:data ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := rdf.Numeric(res.Get(0, "v")); !ok || n.Float() != 9 {
		t.Fatalf("%v", res.Rows)
	}
}

func itoa(v int64) string {
	return strings.TrimSpace(rdf.Integer(v).String())
}

func TestWriteTurtle(t *testing.T) {
	db := Open()
	db.SetPrefix("ex", "http://ex/")
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:s ex:p ex:o .`, ""); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := db.WriteTurtle(&sb, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ex:s ex:p ex:o .") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestRegisterForeign(t *testing.T) {
	db := Open()
	db.RegisterForeign("triple", 1, 1, func(args []rdf.Term) (rdf.Term, error) {
		n, _ := rdf.Numeric(args[0])
		return rdf.Integer(n.Intval() * 3), nil
	})
	res, err := db.Query(`SELECT (triple(14) AS ?v) WHERE {}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "v") != rdf.Integer(42) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestPreparedQuery(t *testing.T) {
	db := Open()
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> .
ex:a ex:val 1 . ex:b ex:val 2 . ex:c ex:val 3 .`, ""); err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare(`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:val ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	// Unparameterized: all three.
	all, err := p.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 3 {
		t.Fatalf("%v", all.Rows)
	}
	// Parameterized on ?v.
	one, err := p.Exec(map[string]rdf.Term{"v": rdf.Integer(2)})
	if err != nil {
		t.Fatal(err)
	}
	if one.Len() != 1 || one.Rows[0][0] != rdf.IRI("http://ex/b") {
		t.Fatalf("%v", one.Rows)
	}
	// Re-execution with a different parameter (parse-once reuse,
	// including queries with aggregates, which must not be corrupted by
	// the rewriting pass).
	agg, err := db.Prepare(`PREFIX ex: <http://ex/> SELECT (SUM(?v) AS ?s) WHERE { ?x ex:val ?v FILTER (?v >= ?min) }`)
	if err != nil {
		t.Fatal(err)
	}
	for want, minv := range map[int64]int64{6: 1, 5: 2, 3: 3} {
		res, err := agg.Exec(map[string]rdf.Term{"min": rdf.Integer(minv)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Get(0, "s") != rdf.Integer(want) {
			t.Fatalf("min=%d: %v", minv, res.Rows)
		}
	}
	if _, err := db.Prepare(`ASK { ?s ?p ?o }`); err == nil {
		// Prepare succeeds at parse time; Exec must reject non-SELECT.
		pp, _ := db.Prepare(`ASK { ?s ?p ?o }`)
		if _, err := pp.Exec(nil); err == nil {
			t.Fatal("ASK through Exec should fail")
		}
	}
}

func TestBatchedAPRStatementCount(t *testing.T) {
	// Regression for the §6.2.4 bag resolution: many scattered element
	// dereferences in one query must resolve in few statements, not one
	// per element.
	rdb := relstore.NewDatabase()
	rb, err := relbackend.New(rdb)
	if err != nil {
		t.Fatal(err)
	}
	rb.Strategy = relbackend.StrategySPD
	db := Open()
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> .
ex:m ex:d (1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20) .`, ""); err != nil {
		t.Fatal(err)
	}
	db.AttachBackend(rb)
	db.Opts.ChunkBytes = 2 * 8 // 2 elements per chunk -> 10 chunks
	if _, err := db.Externalize(); err != nil {
		t.Fatal(err)
	}
	rdb.ResetStats()
	res, err := db.Query(`PREFIX ex: <http://ex/>
SELECT (?a[1] + ?a[5] + ?a[9] + ?a[13] + ?a[17] AS ?sum) WHERE { ex:m ex:d ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := rdf.Numeric(res.Get(0, "sum")); !ok || n.Intval() != 1+5+9+13+17 {
		t.Fatalf("%v", res.Rows)
	}
	// Elements 1,5,9,13,17 (1-based) live in chunks 0,2,4,6,8 — a
	// stride-2 progression: SPD should fetch them with ONE statement.
	if st := rdb.StatsSnapshot(); st.Statements != 1 {
		t.Fatalf("statements %d, want 1 (batched APR)", st.Statements)
	}
}
