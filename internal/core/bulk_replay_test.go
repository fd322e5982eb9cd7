package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"scisparql/internal/rdf"
	"scisparql/internal/wal"
)

// bulkDoc is a Turtle document of n triples, (ex:s<i/8>, ex:p<i%8>, i),
// and every tenth subject also has a blank author with a name.
func bulkDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://ex/> .\n")
	for i := range n {
		fmt.Fprintf(&sb, "ex:s%d ex:p%d %d .\n", i/8, i%8, i)
		if i%80 == 0 {
			fmt.Fprintf(&sb, "ex:s%d ex:author [ ex:name \"a%d\" ] .\n", i/8, i)
		}
	}
	return sb.String()
}

// bulkRows is bulkDoc's ground triples as WriteTriples rows.
func bulkRows(n int) [][]rdf.Term {
	rows := make([][]rdf.Term, n)
	for i := range rows {
		rows[i] = []rdf.Term{rdf.IRI(fmt.Sprintf("http://ex/s%d", i/8)), rdf.IRI(fmt.Sprintf("http://ex/p%d", i%8)), rdf.Integer(i)}
	}
	return rows
}

// tripleKeys renders a graph's triples, sorted.
func tripleKeys(g *rdf.Graph) []string {
	var out []string
	g.Triples(func(s, p, o rdf.Term) bool {
		out = append(out, s.Key()+" "+p.Key()+" "+o.Key())
		return true
	})
	slices.Sort(out)
	return out
}

// TestBulkBatchReplaysToLiveState: a durable Turtle load and a
// WriteTriples, each a transaction of tens of thousands of adds, are one
// batch record apiece whose ops, replayed through applyBatch into a
// fresh store after the records before them, give the live store —
// into an empty default graph, where the transaction logs every add,
// and into one already holding part of the document, where it writes
// its first 65 537 new triples into the tries and logs the rest, repeats
// of held triples among them. The record and the count carry only the
// new triples.
func TestBulkBatchReplaysToLiveState(t *testing.T) {
	n, helds := 75000, []int{0, 8000}
	if raceEnabled {
		// Nothing here runs concurrently; one small load each keeps the
		// race run short.
		n, helds = 5000, helds[:1]
	}
	load := func(t *testing.T, db *SSDM, k int) int {
		if err := db.LoadTurtle(bulkDoc(k), ""); err != nil {
			t.Fatal(err)
		}
		return -1
	}
	write := func(t *testing.T, db *SSDM, k int) int {
		got, err := db.WriteTriples(context.Background(), bulkRows(k), false)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, c := range []struct {
		name   string
		run    func(*testing.T, *SSDM, int) int
		blanks int
	}{{"LoadTurtle", load, 1 + (n-1)/80}, {"WriteTriples", write, 0}} {
		for _, pre := range helds {
			t.Run(fmt.Sprintf("%s/held%d", c.name, pre), func(t *testing.T) {
				dir := t.TempDir()
				db := openWAL(t, dir, nil)
				want := n + 2*c.blanks
				if pre > 0 {
					c.run(t, db, pre)
					// The held part's blank authors are new ones again.
					want += 2 * (1 + (pre-1)/80) * min(c.blanks, 1)
				}
				before := db.Dataset.Default.Size()
				if got := c.run(t, db, n); got >= 0 && got != n-pre {
					t.Fatalf("WriteTriples counted %d changes, want the %d new triples", got, n-pre)
				}
				if size := db.Dataset.Default.Size(); size != want {
					t.Fatalf("live store holds %d triples, want %d", size, want)
				}
				if err := db.CloseWAL(); err != nil {
					t.Fatal(err)
				}

				fresh := Open()
				l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				var last []byte
				err = l.Replay(0, func(_ uint64, typ byte, body []byte) error {
					if typ == wal.RecBatch {
						last = body
					}
					return fresh.applyWalRecord(typ, body)
				})
				if err != nil {
					t.Fatal(err)
				}
				_, _, dels, adds, err := decodeBatch(last)
				if err != nil || len(dels) != 0 || len(adds) != want-before {
					t.Fatalf("last batch record: %d deletes, %d adds (%v); want 0, %d", len(dels), len(adds), err, want-before)
				}
				if got, live := tripleKeys(fresh.Dataset.Default), tripleKeys(db.Dataset.Default); !slices.Equal(got, live) {
					t.Fatalf("replayed store holds %d triples, the live store %d, and they differ", len(got), len(live))
				}
			})
		}
	}
}
