package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/difftest"
	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
	"scisparql/internal/storage"
	"scisparql/internal/wal"
)

// termBatch is a batch record's body written from rows of terms: the
// header, then protocol.EncodeRows over the deletes and the adds, each
// whole-base proxied array object rewritten to its ssdm:fileLink literal
// first. It is how the log wrote a batch before it wrote from IDs, kept
// as the reference appendBatch must match byte for byte.
func termBatch(graph rdf.IRI, blankNo int64, dels, adds [][]rdf.Term) ([]byte, error) {
	dst := append(binary.AppendUvarint(nil, uint64(len(graph))), graph...)
	dst = binary.AppendUvarint(dst, uint64(blankNo))
	for i, rows := range [2][][]rdf.Term{dels, adds} {
		linked := make([][]rdf.Term, len(rows))
		for j, row := range rows {
			linked[j] = append([]rdf.Term(nil), row...)
			at, ok := row[2].(rdf.Array)
			if !ok || at.A.Base.Proxy == nil {
				continue
			}
			if !at.A.IsWholeBase() {
				return nil, errors.New("a partial proxied view")
			}
			linked[j][2] = rdf.Typed{Lexical: strconv.FormatInt(at.A.Base.Proxy.ArrayID, 10), Datatype: rdf.SSDMFileLink}
		}
		table, err := protocol.EncodeRows(linked, 3)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(len(table)))
		}
		dst = append(dst, table...)
		protocol.Release(table)
	}
	return dst, nil
}

// termRows resolves triples of g's IDs to rows of terms.
func termRows(g *rdf.Graph, ts []rdf.Triple) [][]rdf.Term {
	rows := make([][]rdf.Term, len(ts))
	for i, t := range ts {
		rows[i] = []rdf.Term{g.TermOf(t.S), g.TermOf(t.P), g.TermOf(t.O)}
	}
	return rows
}

// TestBatchBytesMatchTermEncoder: appendBatch, which writes a batch
// record from ID triples, writes the bytes termBatch writes for the same
// rows resolved by TermOf — over forty difftest datasets (blanks, NaN
// and -0 doubles, dateTimes, escaped literals) joined by resident
// arrays, proxied arrays (two IDs opening one stored array, and one
// whose link literal the graph also holds) and a partial proxied view,
// with deletes before adds and rows repeated within a table.
func TestBatchBytesMatchTermEncoder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := Open()
		if _, err := db.Update(difftest.Prefixes + difftest.Data(rng)); err != nil {
			t.Fatal(err)
		}
		g := db.Dataset.Default
		p := rdf.IRI("http://ex/data")
		ints, _ := array.FromInts([]int64{1, 2, 3, int64(seed)}, 2, 2)
		addTriple(g, rdf.IRI("http://ex/s0"), p, rdf.NewArray(ints))
		backend := storage.NewMemory()
		id, err := backend.Store(ints, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 2 {
			a, err := backend.Open(id)
			if err != nil {
				t.Fatal(err)
			}
			addTriple(g, rdf.IRI(fmt.Sprintf("http://ex/s%d", i+1)), p, rdf.NewArray(a))
		}
		if seed%2 == 0 {
			addTriple(g, rdf.IRI("http://ex/s3"), p, rdf.Typed{Lexical: strconv.FormatInt(id, 10), Datatype: rdf.SSDMFileLink})
		}
		var ts []rdf.Triple
		g.Match(0, 0, 0, func(tr rdf.Triple) bool {
			ts = append(ts, tr)
			return true
		})
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		ts = append(ts, ts[:len(ts)/4]...)
		cut := rng.Intn(len(ts))
		for _, c := range []struct {
			graph      rdf.IRI
			dels, adds []rdf.Triple
		}{{"", nil, ts}, {"http://ex/g", ts[:cut], ts[cut:]}, {"", ts, nil}, {"", nil, nil}} {
			got, err := appendBatch(nil, g, c.graph, tripleRows(c.dels), tripleRows(c.adds))
			if err != nil {
				t.Fatalf("seed %d: appendBatch: %v", seed, err)
			}
			want, err := termBatch(c.graph, g.BlankNo(), termRows(g, c.dels), termRows(g, c.adds))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, graph %q, %d deletes, %d adds: the ID encoder wrote %d bytes, the term encoder %d, and they differ",
					seed, c.graph, len(c.dels), len(c.adds), len(got), len(want))
			}
		}
		a, _ := backend.Open(id)
		view, err := a.Deref([]array.Range{array.Span(0, 1), array.All()})
		if err != nil {
			t.Fatal(err)
		}
		partial := rdf.Triple{S: g.Intern(rdf.IRI("http://ex/s0")), P: g.Intern(p), O: g.Intern(rdf.NewArray(view))}
		if _, err := appendBatch(nil, g, "", tripleRows(nil), tripleRows([]rdf.Triple{partial})); err == nil || !strings.Contains(err.Error(), "partial proxied view") {
			t.Fatalf("seed %d: a partial proxied view encoded (%v)", seed, err)
		}
	}
}

// TestWALBatchRecordsMatchTermEncoder: the batch records a WAL instance
// appends for updates and a WriteTriples decode to the rows whose term
// encoding is their bytes — the log's records are the term encoder's.
func TestWALBatchRecordsMatchTermEncoder(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	rng := rand.New(rand.NewSource(7))
	for _, u := range []string{
		difftest.Prefixes + difftest.Data(rng),
		difftest.Prefixes + `DELETE { ?s ex:p0 ?o } INSERT { ?s ex:p9 ?o } WHERE { ?s ex:p0 ?o }`,
		difftest.Prefixes + `INSERT DATA { GRAPH ex:g { _:x ex:p1 "NaN"^^xsd:double , "-0"^^xsd:double } }`,
	} {
		if _, err := db.Update(u); err != nil {
			t.Fatal(err)
		}
	}
	ints, _ := array.FromInts([]int64{4, 5}, 2)
	if _, err := db.WriteTriples(context.Background(), [][]rdf.Term{{rdf.IRI("http://ex/a"), rdf.IRI("http://ex/data"), rdf.NewArray(ints)}}, false); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := 0
	err = l.Replay(0, func(_ uint64, typ byte, body []byte) error {
		if typ != wal.RecBatch {
			return nil
		}
		n++
		graph, blankNo, dels, adds, err := decodeBatch(bytes.Clone(body))
		if err != nil {
			return err
		}
		want, err := termBatch(graph, blankNo, dels, adds)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want) {
			return fmt.Errorf("batch record %d is not its rows' term encoding", n)
		}
		return nil
	})
	if err != nil || n != 4 {
		t.Fatalf("%d batch records: %v", n, err)
	}
}
