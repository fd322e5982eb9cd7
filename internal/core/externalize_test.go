package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/storage"
	"scisparql/internal/storage/filestore"
)

var errStoreFailed = errors.New("test: store failed")

// failingBackend is the in-memory back-end counting its Store calls, the
// failAt-th of which fails (0: none does).
type failingBackend struct {
	*storage.Memory
	stores, failAt int
}

func (f *failingBackend) Store(a *array.Array, chunkElems int) (int64, error) {
	if f.stores++; f.stores == f.failAt {
		return 0, errStoreFailed
	}
	return f.Memory.Store(a, chunkElems)
}

// sumOf adds up a one-dimensional array's elements, resident or proxied.
func sumOf(t *testing.T, a *array.Array) float64 {
	sum := 0.0
	for i := range a.Shape[0] {
		v, err := a.At(i)
		if err != nil {
			t.Error(err)
			return 0
		}
		sum += v.Float()
	}
	return sum
}

// dataArrays returns the arrays the default graph holds under
// <http://ex/data>, by subject.
func dataArrays(g *rdf.Graph) map[rdf.Term]*array.Array {
	out := map[rdf.Term]*array.Array{}
	g.MatchTerms(nil, rdf.IRI("http://ex/data"), nil, func(s, _, o rdf.Term) bool {
		out[s] = o.(rdf.Array).A
		return true
	})
	return out
}

func TestExternalizeArrays(t *testing.T) {
	db := Open()
	if err := db.LoadTurtle(`@prefix ex: <http://ex/> . ex:s ex:data ((1 2) (3 4)) .`, ""); err != nil {
		t.Fatal(err)
	}
	db.AttachBackend(storage.NewMemory())
	db.Opts.ChunkBytes = 2 * array.ElemSize
	n, err := db.Externalize()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("moved %d", n)
	}
	a := dataArrays(db.Dataset.Default)[rdf.IRI("http://ex/s")]
	if a.Base.Resident() {
		t.Fatal("array should now be proxied")
	}
	v, err := a.At(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 4 {
		t.Fatalf("got %v", v)
	}
}

// Two triples sharing one array term keep sharing it: the array is
// stored once and both triples reach the same proxy, so a join on it
// still pairs every subject with every other.
func TestExternalizeSharedArray(t *testing.T) {
	db := Open()
	g := db.Dataset.Default
	a, _ := array.FromFloats([]float64{1, 2, 3}, 3)
	addTriple(g, rdf.IRI("http://ex/x"), rdf.IRI("http://ex/data"), rdf.NewArray(a))
	addTriple(g, rdf.IRI("http://ex/y"), rdf.IRI("http://ex/data"), rdf.NewArray(a))
	const q = `PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:data ?a . ?y ex:data ?a }`
	if n := countRows(t, db, q); n != 4 {
		t.Fatalf("before: %d rows, want 4", n)
	}
	b := &failingBackend{Memory: storage.NewMemory()}
	db.AttachBackend(b)
	n, err := db.Externalize()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("moved %d triples, want 2", n)
	}
	if rows := countRows(t, db, q); rows != 4 {
		t.Fatalf("after: %d rows, want 4", rows)
	}
	if b.stores != 1 {
		t.Fatalf("the back-end stored %d arrays, want 1", b.stores)
	}
	for s, a := range dataArrays(g) {
		if a.Base.Resident() || sumOf(t, a) != 6 {
			t.Fatalf("%v: resident %v, sum %v", s, a.Base.Resident(), sumOf(t, a))
		}
	}
}

// TestGuardExternalizeFreesResident: once Externalize returns, nothing
// holds the resident copy of an array it moved, so the collector frees
// it. It fails if the dictionary, or anything else, keeps the resident
// term.
func TestGuardExternalizeFreesResident(t *testing.T) {
	db := Open()
	base := func() weak.Pointer[array.BaseArray] {
		a := array.NewFloat(1 << 12)
		addTriple(db.Dataset.Default, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/data"), rdf.NewArray(a))
		return weak.Make(a.Base)
	}()
	runtime.GC()
	if base.Value() == nil {
		t.Fatal("the resident array was freed while its triple held it")
	}
	db.AttachBackend(storage.NewMemory())
	if _, err := db.Externalize(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if base.Value() != nil {
		t.Fatal("the resident array outlived Externalize")
	}
	// The instance must outlive the check, or its own collection frees
	// the array whatever it holds.
	runtime.KeepAlive(db)
}

// TestGuardStoreCopiesOnce: Externalize encodes each whole resident
// array chunk by chunk from its own elements. Into the file store an
// array costs one chunk buffer, whatever its size, and at most one write
// buffer (they are pooled);
// into the in-memory back-end, which keeps its chunks, it costs its
// payload once. Materializing a copy and encoding that copy whole, as
// Store did before, costs twice the payload per array into either.
func TestGuardStoreCopiesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead is not what this measures")
	}
	const arrays, chunkBytes, slack = 16, 16 << 10, 8 << 10
	const payload = 2 * 16384 * array.ElemSize
	perArray := func(b storage.Backend) int {
		db := Open()
		db.Opts.ChunkBytes = chunkBytes
		for i := range arrays {
			addTriple(db.Dataset.Default, rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/data"), rdf.NewArray(array.NewFloat(2, 16384)))
		}
		db.AttachBackend(b)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if n, err := db.Externalize(); err != nil || n != arrays {
			t.Fatalf("Externalize moved %d arrays, want %d: %v", n, arrays, err)
		}
		runtime.ReadMemStats(&after)
		return int(after.TotalAlloc-before.TotalAlloc) / arrays
	}
	fs, err := filestore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	file, mem := perArray(fs), perArray(storage.NewMemory())
	t.Logf("per %d-byte array: file store %d B, memory %d B", payload, file, mem)
	if bound := chunkBytes + 64<<10 + slack; file > bound {
		t.Errorf("storing an array in the file store allocates %d B, bound %d: the array is copied before it is written", file, bound)
	}
	if bound := payload + chunkBytes + slack; mem > bound {
		t.Errorf("storing an array in memory allocates %d B, bound %d: the array is copied more than once", mem, bound)
	}
}

// Readers running across Externalize, a snapshot pinned before it and a
// query cached before it all read the same elements, the latter two
// through the proxies; the triples do not change and the generation
// moves once.
func TestExternalizeReadersAcrossRebind(t *testing.T) {
	const arrays, elems, readers = 16, 64, 4
	db := Open()
	g := db.Dataset.Default
	data := rdf.IRI("http://ex/data")
	want := map[rdf.ID]float64{}
	for i := range arrays {
		vals := make([]float64, elems)
		for j := range vals {
			vals[j] = float64(i*elems + j)
		}
		a, _ := array.FromFloats(vals, elems)
		s := rdf.IRI(fmt.Sprintf("http://ex/s%d", i))
		addTriple(g, s, data, rdf.NewArray(a))
		id, _ := g.Lookup(s)
		want[id] = sumOf(t, a)
	}
	db.AttachBackend(storage.NewMemory())
	db.Opts.ChunkBytes = 8 * array.ElemSize
	const q = `PREFIX ex: <http://ex/> SELECT ?s ?a (asum(?a) AS ?sum) WHERE { ?s ex:data ?a }`
	checkQuery := func(proxied bool) {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != arrays {
			t.Fatalf("%d rows, want %d", res.Len(), arrays)
		}
		for i := range res.Len() {
			id, _ := g.Lookup(res.Get(i, "s"))
			n, ok := rdf.Numeric(res.Get(i, "sum"))
			a := res.Get(i, "a").(rdf.Array).A
			if !ok || n.Float() != want[id] || a.Base.Resident() == proxied {
				t.Fatalf("row %d: sum %v want %v, proxied %v want %v", i, res.Get(i, "sum"), want[id], !a.Base.Resident(), proxied)
			}
		}
	}
	checkQuery(false)
	dataID, _ := g.Lookup(data)
	readAll := func(g *rdf.Graph) {
		g.Match(0, dataID, 0, func(tr rdf.Triple) bool {
			if got := sumOf(t, g.TermOf(tr.O).(rdf.Array).A); got != want[tr.S] {
				t.Errorf("subject %d: sum %v, want %v", tr.S, got, want[tr.S])
			}
			return true
		})
	}
	snap := g.Snapshot()
	size, gen, hits := g.Size(), g.Generation(), db.QueryCacheStats().Hits

	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		reads atomic.Int64
	)
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				readAll(g)
				reads.Add(1)
			}
		}()
	}
	for reads.Load() < readers {
		runtime.Gosched()
	}
	n, err := db.Externalize()
	after := reads.Load()
	for reads.Load() < after+readers {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n != arrays {
		t.Fatalf("moved %d, want %d", n, arrays)
	}
	if g.Size() != size || g.Generation() != gen+1 {
		t.Fatalf("size %d → %d, generation %d → %d; want the size kept and one generation", size, g.Size(), gen, g.Generation())
	}
	readAll(snap)
	for _, a := range dataArrays(snap) {
		if a.Base.Resident() {
			t.Fatal("the pinned snapshot still reads a resident array")
		}
	}
	checkQuery(true)
	if db.QueryCacheStats().Hits != hits+1 {
		t.Fatal("the query was not served from the cache")
	}
}

// A back-end that fails part-way leaves the arrays it stored proxied and
// the rest resident, every value intact, and takes no checkpoint.
func TestExternalizeBackendFailsPartWay(t *testing.T) {
	const arrays, failAt = 5, 3
	for _, logged := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", logged), func(t *testing.T) {
			dir := t.TempDir()
			db := Open()
			if logged {
				db = openWAL(t, dir, nil)
			}
			for i := range arrays {
				ttl := fmt.Sprintf(`@prefix ex: <http://ex/> . ex:s%d ex:data (%d %d %d) .`, i, 3*i, 3*i+1, 3*i+2)
				if err := db.LoadTurtle(ttl, ""); err != nil {
					t.Fatal(err)
				}
			}
			db.AttachBackend(&failingBackend{Memory: storage.NewMemory(), failAt: failAt})
			ckpt := db.lastCkptLSN
			n, err := db.Externalize()
			if !errors.Is(err, errStoreFailed) {
				t.Fatalf("err %v, want %v", err, errStoreFailed)
			}
			if n != failAt-1 {
				t.Fatalf("moved %d, want %d", n, failAt-1)
			}
			for i := range arrays {
				a := dataArrays(db.Dataset.Default)[rdf.IRI(fmt.Sprintf("http://ex/s%d", i))]
				if proxied := !a.Base.Resident(); proxied != (i < failAt-1) {
					t.Errorf("array %d: proxied %v", i, proxied)
				}
				if got, want := sumOf(t, a), float64(9*i+3); got != want {
					t.Errorf("array %d: sum %v, want %v", i, got, want)
				}
			}
			if db.lastCkptLSN != ckpt {
				t.Fatal("a failed Externalize took a checkpoint")
			}
			if _, err := os.Stat(filepath.Join(dir, checkpointName)); !os.IsNotExist(err) {
				t.Fatalf("checkpoint file: %v", err)
			}
		})
	}
}

// addTriple commits (s, p, o) to g as a one-triple transaction.
func addTriple(g *rdf.Graph, s, p, o rdf.Term) {
	tx := g.Begin()
	tx.Add(s, p, o)
	tx.Commit()
}
