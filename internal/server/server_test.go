package server

import (
	"context"
	"fmt"
	"math"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/rdf"
	"scisparql/internal/ssdmclient"
	"scisparql/internal/storage"
)

func startServer(t *testing.T) (*core.SSDM, *ssdmclient.Client) {
	t.Helper()
	db := core.Open()
	db.AttachBackend(storage.NewMemory())
	srv := New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := ssdmclient.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return db, cl
}

func TestPing(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadAndQueryOverWire(t *testing.T) {
	_, cl := startServer(t)
	err := cl.LoadTurtle(`@prefix ex: <http://ex/> . ex:s ex:v 41 .`, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(`PREFIX ex: <http://ex/> SELECT (?v + 1 AS ?w) WHERE { ex:s ex:v ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "w") != rdf.Integer(42) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestUpdateOverWire(t *testing.T) {
	_, cl := startServer(t)
	n, err := cl.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:s ex:p 1 , 2 }`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count %d", n)
	}
}

func TestStoreArrayAndQueryBack(t *testing.T) {
	_, cl := startServer(t)
	a, _ := array.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if _, err := cl.WriteTriples(context.Background(), [][]rdf.Term{{rdf.IRI("http://ex/run1"), rdf.IRI("http://ex/result"), rdf.NewArray(a)}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Update(`PREFIX ex: <http://ex/>
INSERT DATA { ex:run1 ex:temperature 300 }`); err != nil {
		t.Fatal(err)
	}
	// Retrieve by metadata; server computes the slice, only the row
	// crosses the wire.
	res, err := cl.Query(`PREFIX ex: <http://ex/>
SELECT (?r[2,:] AS ?row) WHERE { ?run ex:temperature 300 ; ex:result ?r }`)
	if err != nil {
		t.Fatal(err)
	}
	row, ok := res.Get(0, "row").(rdf.Array)
	if !ok || row.A.Count() != 3 {
		t.Fatalf("%v", res.Rows)
	}
	v, _ := row.A.At(2)
	if v.Float() != 6 {
		t.Fatalf("%v", v)
	}
}

func TestStoreArrayReturnsID(t *testing.T) {
	_, cl := startServer(t)
	a, _ := array.FromInts([]int64{1, 2, 3}, 3)
	id, err := cl.StoreArray(a)
	if err != nil {
		t.Fatal(err)
	}
	if id <= 0 {
		t.Fatalf("id %d", id)
	}
}

func TestExecuteOverWire(t *testing.T) {
	_, cl := startServer(t)
	res, err := cl.Execute(`
PREFIX ex: <http://ex/>
INSERT DATA { ex:s ex:v 5 } ;
SELECT ?v WHERE { ex:s ex:v ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != rdf.Integer(5) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestQueryErrorPropagates(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Query(`SELECT BROKEN`); err == nil {
		t.Fatal("expected error")
	}
	// The connection remains usable afterwards.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleClients(t *testing.T) {
	db, cl1 := startServer(t)
	_ = db
	if _, err := cl1.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:a ex:v 1 }`); err != nil {
		t.Fatal(err)
	}
	// A second client sees the first client's write.
	srvAddr := cl1 // reuse addr through a second Connect below
	_ = srvAddr
	res, err := cl1.Query(`PREFIX ex: <http://ex/> SELECT ?v WHERE { ex:a ex:v ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("%v", res.Rows)
	}
}

// TestNonFiniteCellsOverWire: a NaN or infinite double is an ordinary
// result cell. As a JSON number it failed the response after the rows
// were built, the server dropped the connection, and the client re-ran
// the query three times before giving up untyped. Every answer must
// equal the embedded one, all on one connection.
func TestNonFiniteCellsOverWire(t *testing.T) {
	db, cl := startServer(t)
	cl.SetReconnect(0, 0) // a dropped connection fails the next query instead of healing
	const xsd = "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
	for _, q := range []string{
		xsd + `SELECT ?x WHERE { BIND("NaN"^^xsd:double AS ?x) }`,
		xsd + `SELECT ?x WHERE { BIND("INF"^^xsd:double AS ?x) }`,
		`SELECT ?x ?y WHERE { BIND(1e308 * 10 AS ?x) BIND(-1e308 * 10 AS ?y) }`,
		`SELECT ?x WHERE { BIND(sqrt(-1.0) AS ?x) }`,
	} {
		want, err := db.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := want.Rows[0][0].(rdf.Float); !ok || !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
			t.Fatalf("%s: embedded answer %v is not a non-finite double", q, want.Rows)
		}
		got, err := cl.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if fmt.Sprint(got.Vars) != fmt.Sprint(want.Vars) || len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %v %v over the wire, want %v %v", q, got.Vars, got.Rows, want.Vars, want.Rows)
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if g, w := got.Rows[i][j], want.Rows[i][j]; g.Kind() != w.Kind() || g.Key() != w.Key() {
					t.Errorf("%s: cell %d,%d = %v over the wire, want %v", q, i, j, g, w)
				}
			}
		}
	}
}

func TestStatsOverWire(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.LoadTurtle(`@prefix ex: <http://ex/> . ex:s ex:v 1 . ex:s ex:v 2 .`, ""); err != nil {
		t.Fatal(err)
	}
	const q = `PREFIX ex: <http://ex/> SELECT ?v WHERE { ex:s ex:v ?v }`
	for i := 0; i < 3; i++ {
		if _, err := cl.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Triples != 2 {
		t.Fatalf("triples %d, want 2", st.Triples)
	}
	if st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Fatalf("stats %+v, want 1 miss / 2 hits for a repeated query text", st)
	}
	if st.CacheEntries != 1 {
		t.Fatalf("entries %d, want 1", st.CacheEntries)
	}
}

func TestChunkCacheStatsOverWire(t *testing.T) {
	// The chunk cache is process-wide; start from clean counters so the
	// assertions below are about this test's traffic.
	array.SharedChunkCache().Reset()
	_, cl := startServer(t)
	data := make([]float64, 4096)
	for i := range data {
		data[i] = float64(i)
	}
	a, _ := array.FromFloats(data, 4096)
	if _, err := cl.WriteTriples(context.Background(), [][]rdf.Term{{rdf.IRI("http://ex/run1"), rdf.IRI("http://ex/result"), rdf.NewArray(a)}}, false); err != nil {
		t.Fatal(err)
	}
	const q = `PREFIX ex: <http://ex/>
SELECT (?r[10] AS ?v) WHERE { ?run ex:result ?r }`
	// First query faults the chunk in (miss); the repeat hits the cache.
	for i := 0; i < 2; i++ {
		res, err := cl.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		// SciSPARQL subscripts are 1-based: ?r[10] is data[9].
		if res.Len() != 1 || res.Get(0, "v") != rdf.Float(9) {
			t.Fatalf("%v", res.Rows)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunkCacheMisses == 0 {
		t.Fatalf("stats %+v: first element access should be a chunk-cache miss", st)
	}
	if st.ChunkCacheHits == 0 {
		t.Fatalf("stats %+v: repeated element access should be a chunk-cache hit", st)
	}
	if st.ChunkCacheEntries == 0 || st.ChunkCacheBytes == 0 {
		t.Fatalf("stats %+v: cached chunk not visible over the wire", st)
	}
	if st.ChunkCacheBudget == 0 {
		t.Fatalf("stats %+v: budget should report the default", st)
	}
	if st.ChunkCachePeakBytes < st.ChunkCacheBytes {
		t.Fatalf("stats %+v: peak below resident bytes", st)
	}
}
