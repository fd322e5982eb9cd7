package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/rdf"
	"scisparql/internal/storage"
)

// durable opens an instance logging to dir, on back-end b when b is not
// nil, and recovers what dir holds.
func durable(t *testing.T, dir string, b storage.Backend) *core.SSDM {
	t.Helper()
	opts := core.DefaultOptions()
	opts.WALDir, opts.WALSync = dir, "none"
	db := core.OpenWith(opts)
	if b != nil {
		db.AttachBackend(b)
	}
	if _, err := db.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSnapshotsRefusedOnCoordinator: a coordinator's own graphs hold
// none of its shards' triples, so it refuses to save or load a snapshot
// (each shard takes its own) rather than write an empty image or load
// one into a graph no query reads.
func TestSnapshotsRefusedOnCoordinator(t *testing.T) {
	const insert = `PREFIX ex: <http://ex/> INSERT DATA { ex:a ex:p 1 . ex:b ex:p 2 . ex:c ex:p 3 }`
	const count = `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`
	node, _ := cluster(t, 2)
	if _, err := node.Update(insert); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "image")
	if err := node.SaveSnapshot(path); !errors.Is(err, ErrUnsupported) {
		t.Errorf("SaveSnapshot on a coordinator = %v, want ErrUnsupported", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("SaveSnapshot on a coordinator wrote %s (%v)", path, err)
	}

	single := core.Open()
	if _, err := single.Update(insert); err != nil {
		t.Fatal(err)
	}
	if err := single.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if err := node.LoadSnapshot(path); !errors.Is(err, ErrUnsupported) {
		t.Errorf("LoadSnapshot on a coordinator = %v, want ErrUnsupported", err)
	}
	if size := node.Dataset.Default.Size(); size != 0 {
		t.Errorf("the coordinator's own graph holds %d triples", size)
	}
	res, err := node.Query(count)
	if err != nil || res.Get(0, "n") != rdf.Integer(3) {
		t.Fatalf("a routed count after the refused load = %v, %v; want the 3 routed triples", res, err)
	}
}

// TestShardCheckpointRestartKeepsBlankJoin: four durable local shards
// hold the corpus, whose blank nodes the coordinator labelled and spread
// over shards apart from the documents naming them. Each shard in turn
// checkpoints and restarts from its checkpoint, and the blank-node join
// answers as before. Restored from a Turtle checkpoint, a shard re-minted
// the labels and the join lost the rows through it.
func TestShardCheckpointRestartKeepsBlankJoin(t *testing.T) {
	var join string
	for _, q := range corpus {
		if q.label == "blank-join" {
			join = q.src
		}
	}
	dirs := make([]string, 4)
	shards := make([]Shard, len(dirs))
	for i := range shards {
		dirs[i] = t.TempDir()
		shards[i] = NewLocalShard(fmt.Sprintf("shard-%d", i), durable(t, dirs[i], nil))
	}
	node := core.Open()
	c, err := New(node, shards)
	if err != nil {
		t.Fatal(err)
	}
	node.SetDistributor(c)
	if _, err := node.Update(corpusData); err != nil {
		t.Fatal(err)
	}
	before, err := node.Query(join)
	if err != nil || before.Len() != 7 {
		t.Fatalf("the join before any restart: %v, %v; want 7 rows", before, err)
	}
	for i, sh := range c.shards {
		db := sh.(*LocalShard).DB()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		db.CloseWAL()
		restarted := durable(t, dirs[i], nil)
		defer restarted.CloseWAL()
		if ri := restarted.RecoveryStats(); !ri.Checkpoint || ri.Records != 0 {
			t.Fatalf("shard %d recovered %+v, want its checkpoint alone", i, ri)
		}
		c.shards[i] = NewLocalShard(sh.Name(), restarted)
		after, err := node.Query(join)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("the join after shard %d restarts", i), before, after)
	}
}

// TestRestoreRoutesKeepEveryKind: every route a store is rebuilt by — a
// snapshot loaded, the log replayed, a checkpoint restored — gives back
// what was written, through every write entry point and with every term
// kind that has broken a text format: NaN, ±Inf and −0, dateTimes with
// nanoseconds and offsets, lang strings with quotes, newlines and control
// characters, escaped typed literals, blank nodes minted and given,
// resident int and float arrays, whole and strided, and — on a back-end —
// proxied arrays, which must come back proxied. In a third pass a load
// past the graph's delta cap follows those writes, so its commit folds
// them into a base, and deletes and adds after it leave the live store
// a base, its tombstones and a delta that each route must rebuild.
func TestRestoreRoutesKeepEveryKind(t *testing.T) {
	data := make([]float64, 24)
	for i := range data {
		data[i] = float64(i) / 3
	}
	floats, _ := array.FromFloats(data, 4, 6)
	strided, err := floats.Deref([]array.Range{array.SpanStep(0, 4, 3), array.SpanStep(1, 6, 2)})
	if err != nil {
		t.Fatal(err)
	}
	proxied := func(g *rdf.Graph) int {
		n := 0
		g.Triples(func(_, _, o rdf.Term) bool {
			if at, ok := o.(rdf.Array); ok && at.A.Base.Proxy != nil {
				n++
			}
			return true
		})
		return n
	}
	for _, c := range []struct {
		b       storage.Backend
		compact bool
	}{{nil, false}, {storage.NewMemory(), false}, {nil, true}} {
		b := c.b
		label := fmt.Sprintf("back-end %v, compacted %v", b != nil, c.compact)
		dir := t.TempDir()
		src := durable(t, dir, b)
		routedWrites(t, src)
		if _, err := src.WriteTriples(context.Background(), [][]rdf.Term{{rdf.IRI("http://ex/strided"), rdf.IRI("http://ex/result"), rdf.NewArray(strided)}}, false); err != nil {
			t.Fatal(err)
		}
		if _, err := src.WriteTriples(context.Background(), [][]rdf.Term{{rdf.Blank("r3"), rdf.IRI("http://ex/result"), rdf.NewArray(floats)}}, false); err != nil {
			t.Fatal(err)
		}
		if c.compact {
			var fill strings.Builder
			fill.WriteString("@prefix ex: <http://ex/> .\n")
			for i := range 66000 {
				fmt.Fprintf(&fill, "ex:f%d ex:fill %d .\n", i, i)
			}
			if err := src.LoadTurtle(fill.String(), ""); err != nil {
				t.Fatal(err)
			}
			for _, u := range []string{
				`DELETE DATA { ex:f7 ex:fill 7 . ex:f8 ex:fill 8 . ex:f ex:v "NaN"^^xsd:double . ex:a ex:at "2020-01-02T03:04:05.123456789Z"^^xsd:dateTime }`,
				`INSERT DATA { ex:f7 ex:fill "seven"@en . ex:f ex:v "NaN"^^xsd:double , "INF"^^xsd:double }`,
			} {
				if _, err := src.Update(`PREFIX ex: <http://ex/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> ` + u); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, wantProxied := storeKeys(src.Dataset.Default), proxied(src.Dataset.Default)
		if b != nil && wantProxied != 6 || b == nil && wantProxied != 0 {
			t.Fatalf("%s: the store holds %d proxied arrays", label, wantProxied)
		}
		image := filepath.Join(t.TempDir(), "image")
		if err := src.SaveSnapshot(image); err != nil {
			t.Fatal(err)
		}
		src.CloseWAL()

		check := func(route string, db *core.SSDM) {
			t.Helper()
			if got := storeKeys(db.Dataset.Default); !slices.Equal(got, want) {
				t.Errorf("%s, %s: the store holds\n%s\nwant\n%s", label, route, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if n := proxied(db.Dataset.Default); n != wantProxied {
				t.Errorf("%s, %s: %d arrays came back proxied, want %d", label, route, n, wantProxied)
			}
		}
		loaded := core.Open()
		if b != nil {
			loaded.AttachBackend(b)
		}
		if err := loaded.LoadSnapshot(image); err != nil {
			t.Fatal(err)
		}
		check("snapshot", loaded)

		replayed := durable(t, dir, b)
		if ri := replayed.RecoveryStats(); ri.Checkpoint || ri.Records == 0 {
			t.Fatalf("%s: recovery %+v, want the log alone", label, ri)
		}
		check("log replay", replayed)
		if err := replayed.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		replayed.CloseWAL()

		restored := durable(t, dir, b)
		if ri := restored.RecoveryStats(); !ri.Checkpoint || ri.Records != 0 {
			t.Fatalf("%s: recovery %+v, want the checkpoint alone", label, ri)
		}
		check("checkpoint", restored)
		restored.CloseWAL()
	}
}
