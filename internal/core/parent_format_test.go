package core

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/difftest"
	"scisparql/internal/rdf"
)

// formatScript is a workload whose batch records hold every kind of
// cell: a durable Turtle load with blanks, NaN and -0 doubles, a
// dateTime with an offset, a collection consolidated into a resident
// array and a file link left a literal (no back-end), loaded again
// before each update, into a graph that holds it; a difftest dataset; a
// DELETE/INSERT WHERE (deletes before adds); WriteTriples adds and
// deletes with given blank labels and a resident array; a named graph;
// a prefix and a DEFINE.
func formatScript(t *testing.T, db *SSDM) {
	t.Helper()
	db.SetPrefix("ex", "http://ex/")
	for _, u := range []string{
		`DEFINE FUNCTION double(?x) AS ?x * 2`,
		difftest.Prefixes + difftest.Data(rand.New(rand.NewSource(3))),
		`PREFIX ex: <http://ex/> DELETE { ?s ex:p1 ?o } INSERT { ?s ex:moved ?o } WHERE { ?s ex:p1 ?o }`,
		`PREFIX ex: <http://ex/> INSERT DATA { GRAPH ex:g { ex:s0 ex:in "named" . _:n ex:in 2 } }`,
		`PREFIX ex: <http://ex/> DELETE DATA { ex:doc ex:gone 1 }`,
	} {
		if err := db.LoadTurtle(`@prefix ex: <http://ex/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix ssdm: <http://udbl.uu.se/ssdm#> .
ex:doc ex:val ((1 2) (3 4)) ; ex:gone 1 ; ex:link "7"^^ssdm:fileLink ;
  ex:nan "NaN"^^xsd:double ; ex:negzero "-0"^^xsd:double ;
  ex:when "2020-01-02T03:04:05.123456789+05:45"^^xsd:dateTime ;
  ex:by [ ex:name "Ann"@en ; ex:knows [ ex:name "Bo" ] ] .
`, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Update(u); err != nil {
			t.Fatal(err)
		}
	}
	ints, _ := array.FromInts([]int64{3, 1, 4, 1, 5, 9}, 2, 3)
	rows := [][]rdf.Term{
		{rdf.IRI("http://ex/w"), rdf.IRI("http://ex/arr"), rdf.NewArray(ints)},
		{rdf.Blank("co1-9"), rdf.IRI("http://ex/p"), rdf.Float(-1.5)},
		{rdf.IRI("http://ex/w"), rdf.IRI("http://ex/p"), rdf.Blank("co1-9")},
	}
	for _, step := range []struct {
		rows [][]rdf.Term
		del  bool
	}{{rows, false}, {rows[1:], true}, {rows[2:], false}} {
		if _, err := db.WriteTriples(context.Background(), step.rows, step.del); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParentLogAndImageRecover: testdata/termlog (a log) and
// testdata/term.img (a snapshot) were written by formatScript when the
// log encoded batches from rows of terms (protocol.EncodeRows) and a
// durable load staged into a dictionary of its own. Both recover, on
// today's reader, to the dataset formatScript leaves in an instance
// without a log: records written before the ID encoder stay readable.
func TestParentLogAndImageRecover(t *testing.T) {
	live := Open()
	formatScript(t, live)
	want := datasetKeys(live)

	dir := t.TempDir()
	for _, name := range []string{"wal-0000000000000000.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", "termlog", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec := openWAL(t, dir, nil)
	defer rec.CloseWAL()
	img := Open()
	if err := img.LoadSnapshot(filepath.Join("testdata", "term.img")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		db   *SSDM
	}{{"log", rec}, {"image", img}} {
		if got := datasetKeys(c.db); !slices.Equal(got, want) {
			t.Errorf("the %s recovers %d triples, formatScript leaves %d, and they differ:\n%v\nwant\n%v", c.name, len(got), len(want), got, want)
		}
		res, err := c.db.Query(`SELECT (double(21) AS ?x) WHERE {}`)
		if err != nil || res.Len() != 1 || res.Get(0, "x").String() != "42" {
			t.Errorf("the %s's define: %v, %v", c.name, res, err)
		}
		if ns := c.db.prefixSnapshot()["ex"]; ns != "http://ex/" {
			t.Errorf("the %s's prefix ex = %q", c.name, ns)
		}
	}
}
