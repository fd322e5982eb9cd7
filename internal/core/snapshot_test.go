package core

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/storage"
	"scisparql/internal/wal"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := Open()
	db.SetPrefix("ex", "http://ex/")
	err := db.LoadTurtle(`@prefix ex: <http://ex/> .
ex:s ex:name "alice" ; ex:age 30 ; ex:m ((1 2) (3 4)) .`, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:n ex:v 7 .`, "http://ex/g1"); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "image.ssdm.ttl")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh instance.
	db2 := Open()
	if err := db2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if db2.Dataset.Default.Size() != db.Dataset.Default.Size() {
		t.Fatalf("default graph %d vs %d", db2.Dataset.Default.Size(), db.Dataset.Default.Size())
	}
	res, err := db2.Query(`PREFIX ex: <http://ex/> SELECT (?m[2,2] AS ?v) WHERE { ex:s ex:m ?m }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := rdf.Numeric(res.Get(0, "v")); !ok || n.Intval() != 4 {
		t.Fatalf("%v", res.Rows)
	}
	res2, err := db2.Query(`SELECT ?v WHERE { GRAPH <http://ex/g1> { ?s ?p ?v } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 1 || res2.Rows[0][0] != rdf.Integer(7) {
		t.Fatalf("%v", res2.Rows)
	}
}

func TestSnapshotWithProxiedArrays(t *testing.T) {
	mem := storage.NewMemory()
	db := Open()
	db.AttachBackend(mem)
	a, _ := array.FromFloats([]float64{5, 6, 7, 8}, 4)
	if _, err := db.WriteTriples(context.Background(), [][]rdf.Term{{rdf.IRI("http://ex/s"), rdf.IRI("http://ex/d"), rdf.NewArray(a)}}, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "image")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	// Restore against the same back-end: the proxy re-links.
	db2 := Open()
	db2.AttachBackend(mem)
	if err := db2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query(`PREFIX ex: <http://ex/> SELECT (asum(?a) AS ?s) WHERE { ex:s ex:d ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := rdf.Numeric(res.Get(0, "s")); !ok || n.Float() != 26 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestLoadSnapshotErrors(t *testing.T) {
	db := Open()
	if err := db.LoadSnapshot("/nonexistent/path"); err == nil {
		t.Fatal("missing file should fail")
	}
	good := filepath.Join(t.TempDir(), "good")
	if err := db.SaveSnapshot(good); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	_, _, head, err := wal.DecodeFrame(image)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"text":             []byte("not a snapshot"),
		"empty":            nil,
		"text image":       []byte("#ssdm-snapshot 1\n#graph <default>\n<http://x> <http://y> 1 .\n"),
		"torn image head":  image[:head-1],
		"log record first": image[head:],
	} {
		bad := filepath.Join(t.TempDir(), "bad")
		os.WriteFile(bad, data, 0o644)
		if err := db.LoadSnapshot(bad); err == nil || !strings.Contains(err.Error(), "not an image") {
			t.Errorf("%s: LoadSnapshot = %v, want not an image", name, err)
		}
	}
}

// datasetKeys renders every graph of db as sorted "<graph> s p o" keys,
// an array by its element type, shape and elements and a blank node by
// its label.
func datasetKeys(db *SSDM) []string {
	key := func(t rdf.Term) string {
		if at, ok := t.(rdf.Array); ok {
			return fmt.Sprintf("array %v %v %v", at.A.Etype(), at.A.Shape, at.A)
		}
		return t.Key()
	}
	var out []string
	for _, name := range append([]rdf.IRI{""}, db.Dataset.GraphNames()...) {
		db.readGraph(name).Triples(func(s, p, o rdf.Term) bool {
			out = append(out, fmt.Sprintf("<%s> %s %s %s", string(name), key(s), key(p), key(o)))
			return true
		})
	}
	sort.Strings(out)
	return out
}

// blankLabels is the set of "<graph> label" pairs of db's blank nodes.
func blankLabels(db *SSDM) map[string]bool {
	out := map[string]bool{}
	for _, name := range append([]rdf.IRI{""}, db.Dataset.GraphNames()...) {
		db.readGraph(name).Triples(func(s, _, o rdf.Term) bool {
			for _, t := range []rdf.Term{s, o} {
				if b, ok := t.(rdf.Blank); ok {
					out[fmt.Sprintf("<%s> %s", string(name), string(b))] = true
				}
			}
			return true
		})
	}
	return out
}

// TestSnapshotKeepsBlankLabelsAndCounters: a snapshot and a checkpoint
// restore blank nodes under the labels they were stored with — minted
// ones and ones a coordinator gave — and the counters beside them, so a
// blank minted after the restore is none of the restored ones.
func TestSnapshotKeepsBlankLabelsAndCounters(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	if _, err := db.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:d1 ex:author _:a . _:a ex:name "Ann" }`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update(`PREFIX ex: <http://ex/> INSERT DATA { GRAPH ex:g { _:b ex:v 1 . _:c ex:v _:b } }`); err != nil {
		t.Fatal(err)
	}
	given := rdf.Blank("co1234-5")
	rows := [][]rdf.Term{{given, rdf.IRI("http://ex/name"), rdf.String{Val: "Bo"}}, {rdf.IRI("http://ex/d2"), rdf.IRI("http://ex/author"), given}}
	if _, err := db.WriteTriples(context.Background(), rows, false); err != nil {
		t.Fatal(err)
	}
	want := blankLabels(db)
	if len(want) != 4 || !want["<> co1234-5"] {
		t.Fatalf("the store holds blank nodes %v", want)
	}
	image := filepath.Join(t.TempDir(), "image")
	if err := db.SaveSnapshot(image); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.CloseWAL()

	loaded := Open()
	if err := loaded.LoadSnapshot(image); err != nil {
		t.Fatal(err)
	}
	recovered := openWAL(t, dir, nil)
	defer recovered.CloseWAL()
	if ri := recovered.RecoveryStats(); !ri.Checkpoint || ri.Records != 0 {
		t.Fatalf("recovery %+v, want the checkpoint alone", ri)
	}
	for route, restored := range map[string]*SSDM{"snapshot": loaded, "checkpoint": recovered} {
		if got := blankLabels(restored); !maps.Equal(got, want) {
			t.Errorf("%s: blank nodes %v, want %v", route, got, want)
			continue
		}
		for _, insert := range []string{`ex:d3 ex:author _:new`, `GRAPH ex:g { _:new ex:v 2 }`} {
			if _, err := restored.Update(`PREFIX ex: <http://ex/> INSERT DATA { ` + insert + ` }`); err != nil {
				t.Fatal(err)
			}
		}
		minted := 0
		for label := range blankLabels(restored) {
			if !want[label] {
				minted++
			}
		}
		if minted != 2 {
			t.Errorf("%s: a blank minted in each graph after the restore made %d new labels, want 2 (it reused a restored one)", route, minted)
		}
	}
}

// TestSeedImageSurvivesRestart: an image loaded into a WAL instance —
// the -image seed of a first start — is durable once the load returns,
// though its replayed records are not logged, and later writes replay
// over it.
func TestSeedImageSurvivesRestart(t *testing.T) {
	seed := Open()
	seed.SetPrefix("ex", "http://ex/")
	if err := seed.LoadTurtle(`@prefix ex: <http://ex/> . ex:d1 ex:author [ ex:name "Ann" ] ; ex:data (1 2 3) .`, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Update(`DEFINE FUNCTION double(?x) AS ?x * 2`); err != nil {
		t.Fatal(err)
	}
	image := filepath.Join(t.TempDir(), "seed")
	if err := seed.SaveSnapshot(image); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	if err := db.LoadSnapshot(image); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:d2 ex:author _:w . _:w ex:name "Bo" }`); err != nil {
		t.Fatal(err)
	}
	want := datasetKeys(db)
	if len(want) != 5 {
		t.Fatalf("the seeded store holds %v", want)
	}
	db.CloseWAL()

	re := openWAL(t, dir, nil)
	defer re.CloseWAL()
	if ri := re.RecoveryStats(); !ri.Checkpoint || ri.Records != 1 {
		t.Fatalf("recovery %+v, want the seed's checkpoint and one record", ri)
	}
	if got := datasetKeys(re); !slices.Equal(got, want) {
		t.Fatalf("after a restart the store holds\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	res, err := re.Query(`PREFIX ex: <http://ex/> SELECT (double(asum(?a)) AS ?x) WHERE { ex:d1 ex:data ?a }`)
	if err != nil || res.Len() != 1 || res.Get(0, "x").String() != "12" {
		t.Fatalf("the seed's define over its array after a restart: %v, %v", res, err)
	}
	re.mu.Lock()
	ns := re.Prefixes["ex"]
	re.mu.Unlock()
	if ns != "http://ex/" {
		t.Fatalf("prefix ex = %q after a restart", ns)
	}
}
