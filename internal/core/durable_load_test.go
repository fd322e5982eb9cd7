package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/storage"
	"scisparql/internal/wal"
)

// biblioDoc is the benchmark's bibliographic document shape — documents
// typed, placed in a journal, dated, titled and credited to three
// authors, abstracts on a third — 156 669 triples at 20 000 documents.
func biblioDoc(docs int) string {
	var sb strings.Builder
	authors := docs/4 + 1
	sb.WriteString("@prefix b: <http://example.org/bench/> .\n")
	for a := 0; a < authors; a++ {
		fmt.Fprintf(&sb, "b:author%d b:type b:Person ; b:name \"Author %d\" .\n", a, a)
	}
	for d := 0; d < docs; d++ {
		fmt.Fprintf(&sb, "b:doc%d b:type b:Article ; b:journal b:journal%d ; b:year %d ; b:title \"Title %d\" ; b:creator b:author%d , b:author%d , b:author%d",
			d, d%8, 1990+d%20, d, 3*d%authors, (3*d+1)%authors, (3*d+2)%authors)
		if d%3 == 0 {
			fmt.Fprintf(&sb, " ; b:abstract \"Abstract of doc %d\"", d)
		}
		sb.WriteString(" .\n")
	}
	return sb.String()
}

// BenchmarkLoadTurtle times LoadTurtle of the 156 669-triple benchmark
// document into a fresh instance — the staged load the benchmark's set-up
// times — on a plain instance and on one with a WAL (fsync off), and
// reports triples/s.
func BenchmarkLoadTurtle(b *testing.B) {
	src := biblioDoc(20000)
	for _, c := range []struct {
		name string
		open func() *SSDM
	}{
		{"plain", Open},
		{"wal", func() *SSDM {
			db := OpenWith(Options{WALDir: b.TempDir(), WALSync: "none"})
			if _, err := db.EnableWAL(); err != nil {
				b.Fatal(err)
			}
			return db
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer() // opening and closing the instance is not the load
				db := c.open()
				b.StartTimer()
				if err := db.LoadTurtle(src, ""); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if n := db.Dataset.Default.Size(); n != 156669 {
					b.Fatalf("loaded %d triples, want 156 669", n)
				}
				db.CloseWAL()
				b.StartTimer()
			}
			b.ReportMetric(float64(156669*b.N)/b.Elapsed().Seconds(), "triples/s")
		})
	}
}

// TestGuardDurableLoadCopiesOnce: a durable LoadTurtle parses the
// document into a stage over the target's dictionary and logs it from
// IDs, so it allocates a plain load's bytes plus one pass over IDs —
// not a second interning of the document and a term table. Over the
// 156 669-triple benchmark document, the durable load's bytes against a
// plain load's read 3.40× when the stage had a dictionary of its own and
// the log encoded terms, then 1.46–1.47× over forty readings, 1.52×
// once the dictionary's identity table took 4 MB off the plain load and
// the log stopped copying a transaction's ops into triples, and 1.42×
// (five readings) since the log writes a large record's body as it is
// instead of copying it into a frame buffer. The bound is that plus 5 %.
func TestGuardDurableLoadCopiesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead is not what this measures")
	}
	src := biblioDoc(20000)
	allocated := func(db *SSDM) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := db.LoadTurtle(src, ""); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := db.Dataset.Default.Size(); n != 156669 {
			t.Fatalf("loaded %d triples, want 156 669", n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	plain := allocated(Open())
	db := openWAL(t, t.TempDir(), nil)
	defer db.CloseWAL()
	durable := allocated(db)
	ratio := float64(durable) / float64(plain)
	t.Logf("durable %d B, plain %d B: %.2f×", durable, plain, ratio)
	if ratio > 1.49 {
		t.Errorf("a durable load allocates %.2f× a plain one (%d vs %d B): it copies the document again", ratio, durable, plain)
	}
}

// lastBatch returns the body of the last batch record in the log in dir.
func lastBatch(t *testing.T, dir string) []byte {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last []byte
	if err := l.Replay(0, func(_ uint64, typ byte, body []byte) error {
		if typ == wal.RecBatch {
			last = slices.Clone(body)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return last
}

// TestDurableLoadLogsFileLinks: a durable load of a document holding
// ssdm:fileLink literals, with a back-end attached, resolves them to
// proxied arrays in the live graph, logs the link literals and not the
// elements, and a fresh instance recovering the log on the same back-end
// holds proxied arrays with the same elements.
func TestDurableLoadLogsFileLinks(t *testing.T) {
	backend := storage.NewMemory()
	a, _ := array.FromFloats([]float64{1.5, 2.5, 3.5, 4.5}, 2, 2)
	id, err := backend.Store(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func() *SSDM {
		db := OpenWith(Options{WALDir: dir, WALSync: "none"})
		db.AttachBackend(backend)
		if _, err := db.EnableWAL(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	doc := fmt.Sprintf(`@prefix ex: <http://ex/> . @prefix ssdm: <%s> .
ex:s1 ex:data "%d"^^ssdm:fileLink ; ex:n 1 .
ex:s2 ex:data "%d"^^ssdm:fileLink .`, rdf.SSDMNS, id, id)
	if err := db.LoadTurtle(doc, ""); err != nil {
		t.Fatal(err)
	}
	want := datasetKeys(db)
	proxied := 0
	db.Dataset.Default.Triples(func(_, _, o rdf.Term) bool {
		if at, ok := o.(rdf.Array); ok && at.A.Base.Proxy != nil {
			proxied++
		}
		return true
	})
	if proxied != 2 {
		t.Fatalf("the live graph holds %d proxied arrays, want 2", proxied)
	}
	db.CloseWAL()

	_, _, dels, adds, err := decodeBatch(lastBatch(t, dir))
	if err != nil || len(dels) != 0 || len(adds) != 3 {
		t.Fatalf("load record: %d deletes, %d adds (%v); want 0, 3", len(dels), len(adds), err)
	}
	link := rdf.Typed{Lexical: fmt.Sprint(id), Datatype: rdf.SSDMFileLink}
	links := 0
	for _, row := range adds {
		if _, ok := row[2].(rdf.Array); ok {
			t.Fatalf("the load record holds an array's elements: %v", row)
		}
		if row[2] == link {
			links++
		}
	}
	if links != 2 {
		t.Fatalf("the load record holds %d file links, want 2: %v", links, adds)
	}

	rec := open()
	defer rec.CloseWAL()
	if got := datasetKeys(rec); !slices.Equal(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestDurableLoadFailureLogsNothing pins the failure contract of a
// durable load: one that fails in parsing or in consolidation (a file
// link to no array) appends no record and leaves the graph's triples as
// they were; the terms it interned stay, as a failed plain parse leaves
// them. A load after the failures logs and recovers as usual.
func TestDurableLoadFailureLogsNothing(t *testing.T) {
	held := "@prefix ex: <http://ex/> .\nex:a ex:p 1 ; ex:q [ ex:r 2 ] .\n"
	badParse := "@prefix ex: <http://ex/> .\nex:new1 ex:p ex:new2 .\nex:new3 ex:p .\n"
	badLink := "@prefix ex: <http://ex/> .\nex:new4 ex:p \"999\"^^<" + string(rdf.SSDMFileLink) + "> .\n"
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	db.AttachBackend(storage.NewMemory())
	plain := Open()
	plain.AttachBackend(storage.NewMemory())
	for _, d := range []*SSDM{db, plain} {
		if err := d.LoadTurtle(held, ""); err != nil {
			t.Fatal(err)
		}
	}
	triples := tripleKeys(db.Dataset.Default)
	for _, doc := range []string{badParse, badLink} {
		appends := db.WALStats().Appends
		if err := db.LoadTurtle(doc, ""); err == nil {
			t.Fatalf("loading %q succeeded", doc)
		}
		if got := db.WALStats().Appends; got != appends {
			t.Errorf("a failed durable load appended %d records", got-appends)
		}
		if got := tripleKeys(db.Dataset.Default); !slices.Equal(got, triples) {
			t.Errorf("a failed durable load changed the triples to %v", got)
		}
	}
	if err := plain.LoadTurtle(badParse, ""); err == nil {
		t.Fatal("a plain load of a bad document succeeded")
	}
	if got, want := db.DictStats().Terms, plain.DictStats().Terms; got != want+2 {
		t.Errorf("the durable instance interns %d terms, the plain one %d; want the plain one's plus the two of the bad link's line", got, want)
	}
	if err := db.LoadTurtle("@prefix ex: <http://ex/> .\nex:b ex:p [ ex:r 3 ] .\n", ""); err != nil {
		t.Fatal(err)
	}
	live := datasetKeys(db)
	db.CloseWAL()
	rec := openWAL(t, dir, nil)
	defer rec.CloseWAL()
	if got := datasetKeys(rec); !slices.Equal(got, live) {
		t.Fatalf("recovered %v, want %v", got, live)
	}
}

// TestPlainLoadIsOneVersion: an instance without a WAL stages a load as
// a durable one does, so readers see a document whole and consolidated
// or not at all. A load whose file link fails leaves the triples and the
// generation as they were, and a document holding a numeric collection
// — consolidated into an array before it is published — advances the
// generation by exactly one, with no list cell left in the graph.
func TestPlainLoadIsOneVersion(t *testing.T) {
	db := Open()
	db.AttachBackend(storage.NewMemory())
	if err := db.LoadTurtle("@prefix ex: <http://ex/> .\nex:a ex:p 1 ; ex:q [ ex:r 2 ] .\n", ""); err != nil {
		t.Fatal(err)
	}
	g := db.Dataset.Default
	triples, gen := tripleKeys(g), g.Generation()
	badLink := "@prefix ex: <http://ex/> .\nex:new ex:p 5 ; ex:data \"999\"^^<" + string(rdf.SSDMFileLink) + "> .\n"
	if err := db.LoadTurtle(badLink, ""); err == nil {
		t.Fatal("a load with a file link to no array succeeded")
	}
	if got := tripleKeys(g); !slices.Equal(got, triples) {
		t.Errorf("a failed load changed the triples to %v", got)
	}
	if got := g.Generation(); got != gen {
		t.Errorf("a failed load moved the generation %d → %d", gen, got)
	}
	db = Open() // the collection check on an instance the failure never touched
	db.AttachBackend(storage.NewMemory())
	g, gen = db.Dataset.Default, db.Dataset.Default.Generation()
	if err := db.LoadTurtle("@prefix ex: <http://ex/> .\nex:m ex:values (1 2 3 4) .\n", ""); err != nil {
		t.Fatal(err)
	}
	if got := g.Generation(); got != gen+1 {
		t.Errorf("a load with a collection moved the generation %d → %d, want one step", gen, got)
	}
	arrays, cells := 0, 0
	g.Triples(func(_, p, o rdf.Term) bool {
		if _, ok := o.(rdf.Array); ok {
			arrays++
		}
		if p == rdf.RDFFirst || p == rdf.RDFRest {
			cells++
		}
		return true
	})
	if arrays != 1 || cells != 0 {
		t.Errorf("the graph holds %d arrays and %d list cells, want 1 and 0", arrays, cells)
	}
}
