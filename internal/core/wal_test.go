package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
	"scisparql/internal/storage"
	"scisparql/internal/wal"
)

func openWAL(t *testing.T, dir string, mut func(*Options)) *SSDM {
	t.Helper()
	opts := DefaultOptions()
	opts.WALDir = dir
	opts.WALSync = "none" // tests drive fsync needs explicitly
	if mut != nil {
		mut(&opts)
	}
	db := OpenWith(opts)
	if _, err := db.EnableWAL(); err != nil {
		t.Fatalf("EnableWAL: %v", err)
	}
	return db
}

func countRows(t *testing.T, db *SSDM, q string) int {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res.Len()
}

func TestWALBasicRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	for i := 0; i < 20; i++ {
		if _, err := db.Update(fmt.Sprintf(
			`PREFIX ex: <http://ex/> INSERT DATA { ex:s%d ex:v %d }`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Update(`PREFIX ex: <http://ex/> DELETE DATA { ex:s3 ex:v 3 }`); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2 := openWAL(t, dir, nil)
	defer db2.CloseWAL()
	got := countRows(t, db2, `PREFIX ex: <http://ex/> SELECT ?s ?o WHERE { ?s ex:v ?o }`)
	if got != 19 {
		t.Fatalf("recovered %d triples, want 19", got)
	}
	if n := countRows(t, db2, `PREFIX ex: <http://ex/> SELECT ?o WHERE { ex:s3 ex:v ?o }`); n != 0 {
		t.Fatalf("deleted triple resurrected (%d rows)", n)
	}
	ri := db2.RecoveryStats()
	if ri.Records != 21 {
		t.Fatalf("RecoveryStats.Records = %d, want 21", ri.Records)
	}
}

func TestWALRecoversModifyClearAndNamedGraphs(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	mustUpdate := func(src string) {
		t.Helper()
		if _, err := db.Update(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	mustUpdate(`PREFIX ex: <http://ex/> INSERT DATA { ex:a ex:v 1 . ex:b ex:v 2 . ex:c ex:v 3 }`)
	mustUpdate(`PREFIX ex: <http://ex/> INSERT DATA { GRAPH ex:g { ex:n ex:v 10 . ex:m ex:v 20 } }`)
	mustUpdate(`PREFIX ex: <http://ex/> DELETE { ?s ex:v ?o } INSERT { ?s ex:w ?o } WHERE { ?s ex:v ?o . FILTER(?o >= 2) }`)
	mustUpdate(`PREFIX ex: <http://ex/> CLEAR GRAPH ex:g`)
	mustUpdate(`PREFIX ex: <http://ex/> INSERT DATA { GRAPH ex:g { ex:fresh ex:v 99 } }`)
	db.CloseWAL()

	db2 := openWAL(t, dir, nil)
	defer db2.CloseWAL()
	if n := countRows(t, db2, `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:v ?o }`); n != 1 {
		t.Fatalf("default ex:v rows = %d, want 1 (only ex:a)", n)
	}
	if n := countRows(t, db2, `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:w ?o }`); n != 2 {
		t.Fatalf("default ex:w rows = %d, want 2", n)
	}
	if n := countRows(t, db2, `PREFIX ex: <http://ex/> SELECT ?s WHERE { GRAPH <http://ex/g> { ?s ex:v ?o } }`); n != 1 {
		t.Fatalf("named graph rows = %d, want 1 (post-clear insert)", n)
	}
}

func TestWALRecoversLoadsDefinesPrefixes(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	if err := db.LoadTurtle("@prefix ex: <http://ex/> .\nex:doc ex:val (1 2 3) .\n", ""); err != nil {
		t.Fatal(err)
	}
	db.SetPrefix("ex", "http://ex/")
	if _, err := db.Update(`DEFINE FUNCTION double(?x) AS ?x * 2`); err != nil {
		t.Fatal(err)
	}
	db.CloseWAL()

	db2 := openWAL(t, dir, nil)
	defer db2.CloseWAL()
	// The collection was consolidated to an array at load; it must come
	// back as one.
	res, err := db2.Query(`PREFIX ex: <http://ex/> SELECT ?v WHERE { ex:doc ex:val ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("array triple rows = %d, want 1", res.Len())
	}
	// The define must be replayable and callable.
	res, err = db2.Query(`SELECT (double(21) AS ?x) WHERE {}`)
	if err != nil {
		t.Fatalf("recovered define not callable: %v", err)
	}
	if res.Len() != 1 || res.Get(0, "x").String() != "42" {
		t.Fatalf("double(21) = %v", res)
	}
	// Prefix survived.
	db2.mu.Lock()
	ns := db2.Prefixes["ex"]
	db2.mu.Unlock()
	if ns != "http://ex/" {
		t.Fatalf("prefix ex = %q after recovery", ns)
	}
}

func TestWALRecoversBlankCounters(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	if _, err := db.Update(`PREFIX ex: <http://ex/> INSERT DATA { _:b1 ex:v 1 . _:b2 ex:v 2 }`); err != nil {
		t.Fatal(err)
	}
	db.CloseWAL()

	db2 := openWAL(t, dir, nil)
	defer db2.CloseWAL()
	// New blanks after recovery must not collide with replayed ones.
	if _, err := db2.Update(`PREFIX ex: <http://ex/> INSERT DATA { _:b1 ex:v 3 }`); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, db2, `PREFIX ex: <http://ex/> SELECT ?s ?o WHERE { ?s ex:v ?o }`); n != 3 {
		t.Fatalf("rows = %d, want 3 (blank collision?)", n)
	}
	subs := map[string]bool{}
	res, _ := db2.Query(`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:v ?o }`)
	for i := 0; i < res.Len(); i++ {
		subs[res.Get(i, "s").Key()] = true
	}
	if len(subs) != 3 {
		t.Fatalf("distinct blank subjects = %d, want 3", len(subs))
	}
}

// TestWALNonFiniteDoubles: NaN and ±Inf are doubles like any other — a
// durable instance logs them, replays them and checkpoints them, and
// holds what a non-durable one holds after the same update.
func TestWALNonFiniteDoubles(t *testing.T) {
	const insert = `PREFIX ex: <http://ex/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
INSERT DATA { ex:nan ex:v "NaN"^^xsd:double . ex:inf ex:v "INF"^^xsd:double . ex:ninf ex:v "-INF"^^xsd:double }`
	dump := func(db *SSDM) string {
		t.Helper()
		res, err := db.Query(`SELECT ?s ?o WHERE { ?s <http://ex/v> ?o }`)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, row := range res.Rows {
			rows = append(rows, row[0].Key()+" "+row[1].Key())
		}
		sort.Strings(rows)
		return strings.Join(rows, "\n")
	}
	plain := Open()
	if _, err := plain.Update(insert); err != nil {
		t.Fatal(err)
	}
	want := dump(plain)
	if !strings.Contains(want, "f:NaN") || !strings.Contains(want, "f:+Inf") || !strings.Contains(want, "f:-Inf") {
		t.Fatalf("non-durable instance holds\n%s", want)
	}

	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	if _, err := db.Update(insert); err != nil {
		t.Fatalf("durable insert: %v", err)
	}
	if got := dump(db); got != want {
		t.Fatalf("durable instance holds\n%s\nwant\n%s", got, want)
	}
	db.CloseWAL()

	replayed := openWAL(t, dir, nil)
	if got := dump(replayed); got != want || replayed.RecoveryStats().Records != 1 {
		t.Fatalf("after replaying %d records:\n%s\nwant\n%s", replayed.RecoveryStats().Records, got, want)
	}
	if err := replayed.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	replayed.CloseWAL()

	reopened := openWAL(t, dir, nil)
	defer reopened.CloseWAL()
	if ri := reopened.RecoveryStats(); !ri.Checkpoint || ri.Records != 0 {
		t.Fatalf("recovery %+v, want the checkpoint alone", ri)
	}
	if got := dump(reopened); got != want {
		t.Fatalf("after the checkpoint:\n%s\nwant\n%s", got, want)
	}
}

// TestWALCheckpointKeepsFractionalSeconds: a dateTime with nanoseconds
// survives the checkpoint as itself, not rounded to the second.
func TestWALCheckpointKeepsFractionalSeconds(t *testing.T) {
	s, p := rdf.IRI("http://ex/s"), rdf.IRI("http://ex/at")
	o := rdf.DateTime{T: time.Date(2020, 1, 2, 3, 4, 5, 123456789, time.UTC)}
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	if _, err := db.Update(`PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
INSERT DATA { <http://ex/s> <http://ex/at> "2020-01-02T03:04:05.123456789Z"^^xsd:dateTime }`); err != nil {
		t.Fatal(err)
	}
	if !db.Dataset.Default.Has(s, p, o) {
		t.Fatalf("the insert did not store %s", o.Key())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	db.CloseWAL()

	reopened := openWAL(t, dir, nil)
	defer reopened.CloseWAL()
	if ri := reopened.RecoveryStats(); !ri.Checkpoint || ri.Records != 0 {
		t.Fatalf("recovery %+v, want the checkpoint alone", ri)
	}
	if !reopened.Dataset.Default.Has(s, p, o) {
		var got []string
		reopened.Dataset.Default.Triples(func(_, _, o rdf.Term) bool { got = append(got, o.Key()); return true })
		t.Fatalf("after the checkpoint the store holds %v, want %s", got, o.Key())
	}
}

func TestWALCheckpointAndTruncation(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	for i := 0; i < 30; i++ {
		if _, err := db.Update(fmt.Sprintf(
			`PREFIX ex: <http://ex/> INSERT DATA { ex:s%d ex:v %d }`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 30; i < 40; i++ {
		if _, err := db.Update(fmt.Sprintf(
			`PREFIX ex: <http://ex/> INSERT DATA { ex:s%d ex:v %d }`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	db.CloseWAL()

	if _, err := os.Stat(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatalf("no checkpoint file: %v", err)
	}

	db2 := openWAL(t, dir, nil)
	defer db2.CloseWAL()
	if n := countRows(t, db2, `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:v ?o }`); n != 40 {
		t.Fatalf("recovered %d triples, want 40", n)
	}
	ri := db2.RecoveryStats()
	if !ri.Checkpoint {
		t.Fatal("recovery did not use the checkpoint")
	}
	if ri.Records != 10 {
		t.Fatalf("replayed %d records past checkpoint, want 10", ri.Records)
	}
}

func TestWALAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, func(o *Options) { o.WALCheckpointBytes = 2048 })
	for i := 0; i < 60; i++ {
		if _, err := db.Update(fmt.Sprintf(
			`PREFIX ex: <http://ex/> INSERT DATA { ex:s%d ex:v %d }`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	db.CloseWAL()
	if _, err := os.Stat(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatal("auto-checkpoint never fired")
	}
	db2 := openWAL(t, dir, func(o *Options) { o.WALCheckpointBytes = 2048 })
	defer db2.CloseWAL()
	if n := countRows(t, db2, `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:v ?o }`); n != 60 {
		t.Fatalf("recovered %d triples, want 60", n)
	}
}

func TestWALRecoversArrays(t *testing.T) {
	dir := t.TempDir()
	backend := storage.NewMemory()
	opts := DefaultOptions()
	opts.WALDir = dir
	opts.WALSync = "none"
	db := OpenWith(opts)
	db.AttachBackend(backend)
	if _, err := db.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	a, err := array.FromFloats([]float64{1, 2, 3, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.WriteTriples(context.Background(), [][]rdf.Term{{rdf.IRI("http://ex/sensor"), rdf.IRI("http://ex/data"), rdf.NewArray(a)}}, false); err != nil {
		t.Fatal(err)
	}
	db.CloseWAL()

	db2 := OpenWith(opts)
	db2.AttachBackend(backend) // arrays live in the (durable) back-end
	if _, err := db2.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	defer db2.CloseWAL()
	res, err := db2.Query(`PREFIX ex: <http://ex/> SELECT (asum(?a) AS ?v) WHERE { ?s ex:data ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := rdf.Numeric(res.Get(0, "v")); res.Len() != 1 || !ok || n.Float() != 10 {
		t.Fatalf("recovered proxied array sums to %v", res.Rows)
	}
}

// TestWALReplayFailsOnMissingLinkedArray: a logged file link that the
// attached back-end cannot open fails recovery instead of restoring a
// literal where the live store held an array.
func TestWALReplayFailsOnMissingLinkedArray(t *testing.T) {
	dir := t.TempDir()
	body, err := termBatch("", 0, nil, [][]rdf.Term{{rdf.IRI("http://ex/s"), rdf.IRI("http://ex/data"),
		rdf.Typed{Lexical: "999", Datatype: rdf.SSDMFileLink}}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.RecBatch, body); err != nil {
		t.Fatal(err)
	}
	l.Close()
	db := OpenWith(Options{WALDir: dir, WALSync: "none"})
	db.AttachBackend(storage.NewMemory())
	if _, err := db.EnableWAL(); err == nil || !strings.Contains(err.Error(), "file link") {
		t.Fatalf("recovering a link to no array = %v, want a file link error", err)
	}
}

// TestWALWriteTriplesOneRecord: a WriteTriples call is one batch record
// however many rows it carries, and replay restores it with its blank
// labels as given — the labels a coordinator minted are what its other
// shards hold.
func TestWALWriteTriplesOneRecord(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	author, p := rdf.Blank("co1f-7"), rdf.IRI("http://ex/p")
	rows := [][]rdf.Term{
		{rdf.IRI("http://ex/d1"), p, author},
		{author, p, rdf.String{Val: "Ann"}},
		{author, p, rdf.Integer(3)},
	}
	for _, step := range []struct {
		rows [][]rdf.Term
		del  bool
		want int
	}{{rows, false, 3}, {rows, false, 0}, {rows[2:], true, 1}} {
		before := db.WALStats().Appends
		n, err := db.WriteTriples(context.Background(), step.rows, step.del)
		if err != nil || n != step.want {
			t.Fatalf("WriteTriples(%d rows, del %v) = %d, %v; want %d", len(step.rows), step.del, n, err, step.want)
		}
		if appends, want := db.WALStats().Appends-before, min(int64(n), 1); appends != want {
			t.Fatalf("WriteTriples changing %d triples appended %d records, want %d", n, appends, want)
		}
	}
	db.CloseWAL()

	db2 := openWAL(t, dir, nil)
	defer db2.CloseWAL()
	g := db2.Dataset.Default
	if g.Size() != 2 || !g.Has(rows[0][0], p, author) || !g.Has(author, p, rdf.String{Val: "Ann"}) {
		t.Fatalf("recovered %d triples, want the first two rows with their blank label", g.Size())
	}
}

// TestWALCrashMatrix is the crash-injection sweep at the manager
// level: run a workload with a checkpoint in the middle, then simulate a
// kill at every record boundary after it (and a byte inside each frame)
// by truncating a copy of the log beside the checkpoint, and verify the
// recovered dataset is exactly the longest committed prefix of the
// statements, as a non-durable instance holds after them. Between them
// the records hold deletes and adds in one batch, a clear, blank nodes
// minted and given, and resident arrays.
func TestWALCrashMatrix(t *testing.T) {
	ints, _ := array.FromInts([]int64{1, 2, 3, 4, 5, 6}, 2, 3)
	floats, _ := array.FromFloats([]float64{math.NaN(), -0.5, math.Inf(1), math.Copysign(0, -1)}, 4)
	data, knows := rdf.IRI("http://ex/data"), rdf.IRI("http://ex/knows")
	given, other := rdf.Blank("co9-1"), rdf.Blank("co9-2")
	type step func(*testing.T, *SSDM)
	update := func(src string) step {
		return func(t *testing.T, db *SSDM) {
			t.Helper()
			if _, err := db.Update(`PREFIX ex: <http://ex/> ` + src); err != nil {
				t.Fatalf("%s: %v", src, err)
			}
		}
	}
	write := func(rows ...[]rdf.Term) step {
		return func(t *testing.T, db *SSDM) {
			t.Helper()
			if _, err := db.WriteTriples(context.Background(), rows, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The steps before the checkpoint end up in its image; each one after
	// it is one log record.
	before := []step{
		update(`INSERT DATA { ex:batch0 ex:a 0 ; ex:b 0 . ex:doc0 ex:author [ ex:name "Ann" ] }`),
		write([]rdf.Term{given, data, rdf.NewArray(ints)}, []rdf.Term{rdf.IRI("http://ex/doc1"), knows, given}),
	}
	after := []step{
		update(`INSERT DATA { ex:batch1 ex:a 1 ; ex:b 1 }`),
		update(`DELETE { ?s ex:a ?o } INSERT { ?s ex:c ?o ; ex:note [ ex:v ?o ] } WHERE { ?s ex:a ?o }`),
		update(`INSERT DATA { GRAPH ex:g { ex:n ex:v 1 . ex:m ex:v _:x } }`),
		write([]rdf.Term{other, data, rdf.NewArray(floats)}, []rdf.Term{given, knows, other}),
		update(`CLEAR GRAPH ex:g`),
		update(`INSERT DATA { ex:batch2 ex:a 2 ; ex:b 2 . _:y ex:name "Bo" }`),
		update(`DELETE DATA { ex:batch2 ex:b 2 }`),
	}

	master := t.TempDir()
	db := openWAL(t, master, nil)
	for _, st := range before {
		st(t, db)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, st := range after {
		st(t, db)
	}
	db.CloseWAL()
	wants := make([][]string, 0, len(after)+1)
	oracle := Open()
	for _, st := range before {
		st(t, oracle)
	}
	wants = append(wants, datasetKeys(oracle))
	for _, st := range after {
		st(t, oracle)
		wants = append(wants, datasetKeys(oracle))
	}

	image, err := os.ReadFile(filepath.Join(master, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	segs, err := os.ReadDir(master)
	if err != nil {
		t.Fatal(err)
	}
	var segName string
	for _, e := range segs {
		if strings.HasPrefix(e.Name(), "wal-") {
			if segName != "" {
				t.Fatalf("expected one segment, found %s and %s", segName, e.Name())
			}
			segName = e.Name()
		}
	}
	raw, err := os.ReadFile(filepath.Join(master, segName))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: walk the log like recovery does.
	bounds := []int{0}
	for off := 0; off < len(raw); {
		_, _, size, err := wal.DecodeFrame(raw[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += size
		bounds = append(bounds, off)
	}
	n := len(after)
	if len(bounds) != n+1 {
		t.Fatalf("found %d records in the log after the checkpoint, want %d", len(bounds)-1, n)
	}

	cuts := []int{}
	for i := 1; i <= n; i++ {
		cuts = append(cuts, bounds[i])       // exactly after record i
		cuts = append(cuts, bounds[i-1]+5)   // torn header
		mid := (bounds[i-1] + bounds[i]) / 2 // torn body
		cuts = append(cuts, mid)
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointName), image, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec := openWAL(t, dir, nil)
		// Committed prefix: number of boundaries at or below the cut.
		want := 0
		for want < n && bounds[want+1] <= cut {
			want++
		}
		if got := datasetKeys(rec); !slices.Equal(got, wants[want]) {
			t.Fatalf("cut=%d: recovered\n%s\nwant the state after %d records\n%s", cut, strings.Join(got, "\n"), want, strings.Join(wants[want], "\n"))
		}
		// The recovered instance accepts new durable updates.
		if _, err := rec.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:resumed ex:ok 1 }`); err != nil {
			t.Fatalf("cut=%d: update after recovery: %v", cut, err)
		}
		rec.CloseWAL()
	}
}

// TestBatchRecordRefusesAddBeforeDelete: replay applies a batch's
// deletes before its adds, so ops that add before they delete have no
// batch record; deletes then adds (DELETE/INSERT WHERE's order) do.
func TestBatchRecordRefusesAddBeforeDelete(t *testing.T) {
	db := openWAL(t, t.TempDir(), nil)
	defer db.CloseWAL()
	g := db.Dataset.Default
	s, p := g.Intern(rdf.IRI("http://ex/s")), g.Intern(rdf.IRI("http://ex/p"))
	add := rdf.Op{Kind: rdf.OpAdd, S: s, P: p, O: g.Intern(rdf.Integer(1))}
	del := rdf.Op{Kind: rdf.OpDelete, S: s, P: p, O: g.Intern(rdf.Integer(2))}
	if _, err := db.walAppendBatch("", []rdf.Op{del, add, add}); err != nil {
		t.Errorf("deletes then adds: %v", err)
	}
	if _, err := db.walAppendBatch("", []rdf.Op{del, add, del}); err == nil || !strings.Contains(err.Error(), "add before a delete") {
		t.Errorf("an add before a delete = %v, want refused", err)
	}
}

// TestPreChangeFormatsFailRecovery: there is no reader for the formats
// the binary records replaced. A text checkpoint is not an image, and a
// log holding a JSON batch record (type 1) fails at it.
func TestPreChangeFormatsFailRecovery(t *testing.T) {
	enable := func(dir string) error {
		opts := DefaultOptions()
		opts.WALDir, opts.WALSync = dir, "none"
		db := OpenWith(opts)
		_, err := db.EnableWAL()
		if err == nil {
			db.CloseWAL()
		}
		return err
	}
	dir := t.TempDir()
	text := "#ssdm-checkpoint 1\n#meta {\"lsn\":0}\n#ssdm-snapshot 1\n#graph <default>\n<http://ex/s> <http://ex/p> 1 .\n"
	if err := os.WriteFile(filepath.Join(dir, checkpointName), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := enable(dir); err == nil || !strings.Contains(err.Error(), "is not an image") {
		t.Errorf("recovery from a text checkpoint = %v, want not an image", err)
	}

	dir = t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.RecPrefix, []byte(`{"name":"ex","ns":"http://ex/"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte(`{"ops":[{"k":0,"s":{"t":"iri","s":"http://ex/s"},"p":{"t":"iri","s":"http://ex/p"},"o":{"t":"int","i":1}}]}`)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := enable(dir); err == nil || !strings.Contains(err.Error(), "unknown record type 1") {
		t.Errorf("recovery from a JSON batch record = %v, want unknown record type 1", err)
	}
}

// FuzzReplayBatch: whatever a batch record's body holds, replaying it is
// an error or a transaction — never a panic, and never an allocation
// sized by a count its bytes cannot back.
func FuzzReplayBatch(f *testing.F) {
	ints, _ := array.FromInts([]int64{1, -2, 3, math.MinInt64}, 2, 2)
	floats, _ := array.FromFloats([]float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 1e-300, 5, 6}, 3, 2)
	strided, err := floats.Deref([]array.Range{array.SpanStep(0, 3, 2), array.All()})
	if err != nil {
		f.Fatal(err)
	}
	s, p, b := rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Blank("co1-2")
	var rows [][]rdf.Term
	for _, o := range []rdf.Term{
		s, b, rdf.String{Val: "ctl\x00\x1f \"q\"\n"}, rdf.String{Val: "hej", Lang: "sv"},
		rdf.Integer(-7), rdf.Float(math.NaN()), rdf.Float(math.Inf(1)), rdf.Float(math.Copysign(0, -1)),
		rdf.Boolean(true), rdf.Typed{Lexical: "a\"b\\c\n", Datatype: "http://ex/dt"},
		rdf.DateTime{T: time.Date(1999, 12, 31, 23, 59, 59, 1, time.FixedZone("", -(9*3600+30*60)))},
		rdf.NewArray(ints), rdf.NewArray(strided),
		rdf.Typed{Lexical: "42", Datatype: rdf.SSDMFileLink},
	} {
		rows = append(rows, []rdf.Term{b, p, o})
	}
	for _, tc := range []struct {
		graph      rdf.IRI
		blank      int64
		dels, adds [][]rdf.Term
	}{
		{"", 0, nil, rows},
		{"http://ex/g", 7, rows[:3], rows[3:]},
		{"", 1 << 40, [][]rdf.Term{{s, p, b}}, nil},
		{"", 0, nil, nil},
	} {
		body, err := termBatch(tc.graph, tc.blank, tc.dels, tc.adds)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if _, _, dels, adds, err := decodeBatch(body); err == nil && len(dels)+len(adds) > len(body) {
			t.Fatalf("%d rows out of %d bytes", len(dels)+len(adds), len(body))
		}
		db := Open()
		db.AttachBackend(storage.NewMemory())
		_ = db.applyWalRecord(wal.RecBatch, body)
	})
}

// TestWALGroupCommitCoalesces drives concurrent updates under the
// "always" policy and checks they were acknowledged durably with fewer
// fsyncs than commits.
func TestWALGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, func(o *Options) {
		o.WALSync = "always"
		o.WALGroupWait = 2 * time.Millisecond
	})
	defer db.CloseWAL()
	const writers, each = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := db.Update(fmt.Sprintf(
					`PREFIX ex: <http://ex/> INSERT DATA { ex:w%d ex:seq %d }`, w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.WALStats()
	if !st.Enabled {
		t.Fatal("WALStats not enabled")
	}
	if st.Appends != writers*each {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*each)
	}
	if st.Syncs >= st.Commits {
		t.Fatalf("no coalescing: %d syncs for %d commits", st.Syncs, st.Commits)
	}
	if st.SyncedLSN != st.TailLSN {
		t.Fatalf("tail %d not durable (synced %d) after all updates acknowledged", st.TailLSN, st.SyncedLSN)
	}
}

// TestWALFailureReturnsErrDurability poisons the log directory and
// checks updates fail with the typed durability error while the staged
// mutation is rolled back.
func TestWALFailureReturnsErrDurability(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	defer db.CloseWAL()
	if _, err := db.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:ok ex:v 1 }`); err != nil {
		t.Fatal(err)
	}
	// Sabotage: close the log's file descriptor out from under it by
	// closing the whole log, then try an update.
	db.wal.Close()
	_, err := db.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:lost ex:v 2 }`)
	if err == nil {
		t.Fatal("update succeeded on a dead log")
	}
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("error %v is not ErrDurability", err)
	}
	// The staged mutation must have been aborted: memory never runs
	// ahead of the log.
	if n := countRows(t, db, `PREFIX ex: <http://ex/> SELECT ?o WHERE { ex:lost ex:v ?o }`); n != 0 {
		t.Fatalf("aborted update visible (%d rows)", n)
	}
	if n := countRows(t, db, `PREFIX ex: <http://ex/> SELECT ?o WHERE { ex:ok ex:v ?o }`); n != 1 {
		t.Fatalf("pre-failure data lost (%d rows)", n)
	}
}

func TestEnableWALRequiresDir(t *testing.T) {
	db := Open()
	if _, err := db.EnableWAL(); err == nil {
		t.Fatal("EnableWAL succeeded without a directory")
	}
}

func TestUpdateLimitsStillBoundUnderWAL(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, nil)
	defer db.CloseWAL()
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> .
ex:a ex:v 1 . ex:b ex:v 2 . ex:c ex:v 3 . ex:d ex:v 4 . ex:e ex:v 5 .`, ""); err != nil {
		t.Fatal(err)
	}
	lim := engine.Limits{MaxBindings: 4}
	_, err := db.UpdateLimits(context.Background(), `PREFIX ex: <http://ex/> DELETE { ?s ex:v ?o } WHERE { ?s ex:v ?o }`, lim)
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("err = %v, want ErrResourceLimit", err)
	}
	// The over-budget statement must not have half-applied.
	if n := countRows(t, db, `PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:v ?o }`); n != 5 {
		t.Fatalf("rows = %d after failed delete, want 5", n)
	}
}

// TestWALSnapshotIsolationUnderGroupCommit is the read/write isolation
// stress test for the durable write path: group-committed writers keep
// flipping a pair of triples that must always agree, while readers
// hammer the same (compiled-query-cached) SELECT. A reader observing
// x != y would mean it saw a half-applied statement — i.e. the
// copy-on-write snapshot leaked an in-progress mutation — and a reader
// observing a value no writer ever committed would mean the compiled
// query cache served stale term IDs. Run under -race in CI.
func TestWALSnapshotIsolationUnderGroupCommit(t *testing.T) {
	dir := t.TempDir()
	db := openWAL(t, dir, func(o *Options) {
		o.WALSync = "always"
		o.WALGroupWait = time.Millisecond
	})
	defer db.CloseWAL()
	if _, err := db.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:cfg ex:a 0 ; ex:b 0 }`); err != nil {
		t.Fatal(err)
	}

	const (
		writers = 4
		readers = 4
		rounds  = 40
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := w*rounds + i + 1
				_, err := db.Update(fmt.Sprintf(`PREFIX ex: <http://ex/>
DELETE { ex:cfg ex:a ?x . ex:cfg ex:b ?y }
INSERT { ex:cfg ex:a %d . ex:cfg ex:b %d }
WHERE { ex:cfg ex:a ?x . ex:cfg ex:b ?y }`, v, v))
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Query(`PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ex:cfg ex:a ?x . ex:cfg ex:b ?y }`)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != 1 {
					t.Errorf("rows = %d, want exactly 1", res.Len())
					return
				}
				x, okx := rdf.Numeric(res.Get(0, "x"))
				y, oky := rdf.Numeric(res.Get(0, "y"))
				if !okx || !oky || x.Float() != y.Float() {
					t.Errorf("torn read: x=%v y=%v", res.Get(0, "x"), res.Get(0, "y"))
					return
				}
			}
		}()
	}
	// Close the readers down once all writers are finished.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		// Writers are the first `writers` members of wg; simplest to
		// just stop the readers after a fixed stress window.
		time.Sleep(250 * time.Millisecond)
		close(stop)
	}()
	<-done

	// Durability spot check: after a clean close, recovery must land
	// on one of the committed (always-consistent) states.
	db.CloseWAL()
	db2 := openWAL(t, dir, nil)
	defer db2.CloseWAL()
	res, err := db2.Query(`PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ex:cfg ex:a ?x . ex:cfg ex:b ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	x, okx := rdf.Numeric(res.Get(0, "x"))
	y, oky := rdf.Numeric(res.Get(0, "y"))
	if res.Len() != 1 || !okx || !oky || x.Float() != y.Float() {
		t.Fatalf("recovered state inconsistent: %v", res.Rows)
	}
	st := db2.WALStats()
	if !st.Enabled {
		t.Fatal("WAL should report enabled")
	}
}

// TestWALReplaysArrayDeletes: a batch record's array cell carries no
// identity, so replay resolves a deleted array against the graph — a
// resident one by type, shape and element bits (NaN included), two equal
// ones deleted together both go, and a proxied one by the back-end ID its
// file link names. Adding, deleting and re-adding an array recovers to
// the live count rather than resurrecting the deleted triple.
func TestWALReplaysArrayDeletes(t *testing.T) {
	ctx := context.Background()
	s, p := rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p")
	array1 := func() rdf.Term {
		a, _ := array.FromFloats([]float64{1, math.NaN(), math.Copysign(0, -1), 4, 5, 6}, 2, 3)
		return rdf.NewArray(a)
	}
	// object returns the term the live graph holds for (s, p, ·): the
	// proxy a back-end gave the array, which a delete must name.
	object := func(db *SSDM) rdf.Term {
		g := db.Dataset.Default
		sid, _ := g.Lookup(s)
		pid, _ := g.Lookup(p)
		var o rdf.Term
		g.Match(sid, pid, 0, func(tr rdf.Triple) bool { o = g.TermOf(tr.O); return false })
		return o
	}
	for _, c := range []struct {
		name    string
		backend storage.Backend
	}{{"resident", nil}, {"proxied", storage.NewMemory()}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *SSDM {
				opts := DefaultOptions()
				opts.WALDir, opts.WALSync = dir, "none"
				db := OpenWith(opts)
				if c.backend != nil {
					db.AttachBackend(c.backend)
				}
				if _, err := db.EnableWAL(); err != nil {
					t.Fatal(err)
				}
				return db
			}
			db := open()
			a, twin := array1(), array1()
			write := func(del bool, objs ...rdf.Term) {
				t.Helper()
				var rows [][]rdf.Term
				for _, o := range objs {
					rows = append(rows, []rdf.Term{s, p, o})
				}
				if _, err := db.WriteTriples(ctx, rows, del); err != nil {
					t.Fatal(err)
				}
			}
			write(false, a)
			write(true, object(db))
			write(false, a)
			if c.backend == nil {
				write(false, twin)
				write(true, a, twin)
				write(false, twin)
			}
			live := db.Dataset.Default.Size()
			if live != 1 {
				t.Fatalf("live store holds %d triples, want 1", live)
			}
			db.CloseWAL()
			rec := open()
			defer rec.CloseWAL()
			if got := rec.Dataset.Default.Size(); got != live {
				t.Fatalf("recovery holds %d triples, the live store %d", got, live)
			}
		})
	}
}
