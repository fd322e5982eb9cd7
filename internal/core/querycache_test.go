package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"scisparql/internal/difftest"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

func mustUpdate(t *testing.T, db *SSDM, src string) {
	t.Helper()
	if _, err := db.Update(src); err != nil {
		t.Fatalf("update %q: %v", src, err)
	}
}

func TestQueryCacheHitsOnRepeatedText(t *testing.T) {
	db := Open()
	mustUpdate(t, db, `PREFIX ex: <http://ex/> INSERT DATA { ex:s ex:v 1 , 2 }`)
	const q = `PREFIX ex: <http://ex/> SELECT (SUM(?v) AS ?t) WHERE { ex:s ex:v ?v }`
	for i := 0; i < 5; i++ {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Get(0, "t") != rdf.Integer(3) {
			t.Fatalf("run %d: %v", i, res.Rows)
		}
	}
	st := db.QueryCacheStats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Fatalf("stats %+v, want 1 miss / 4 hits", st)
	}
	if st.Entries != 1 {
		t.Fatalf("entries %d, want 1", st.Entries)
	}
}

func TestQueryCacheSharedWithExplain(t *testing.T) {
	db := Open()
	mustUpdate(t, db, `PREFIX ex: <http://ex/> INSERT DATA { ex:s ex:v 1 }`)
	const q = `PREFIX ex: <http://ex/> SELECT ?v WHERE { ex:s ex:v ?v }`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Explain(q); err != nil {
		t.Fatal(err)
	}
	st := db.QueryCacheStats()
	if st.Hits != 1 {
		t.Fatalf("stats %+v, want Explain to hit Query's entry", st)
	}
}

func TestQueryCacheDoesNotCacheParseErrors(t *testing.T) {
	db := Open()
	for i := 0; i < 3; i++ {
		if _, err := db.Query(`SELECT WHERE`); err == nil {
			t.Fatal("expected parse error")
		}
	}
	st := db.QueryCacheStats()
	if st.Entries != 0 {
		t.Fatalf("entries %d, parse errors must not be cached", st.Entries)
	}
}

func TestQueryCacheSeesDataUpdates(t *testing.T) {
	db := Open()
	mustUpdate(t, db, `PREFIX ex: <http://ex/> INSERT DATA { ex:s ex:v 1 }`)
	const q = `PREFIX ex: <http://ex/> SELECT (SUM(?v) AS ?t) WHERE { ex:s ex:v ?v }`
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "t") != rdf.Integer(1) {
		t.Fatalf("%v", res.Rows)
	}
	// The second execution is a cache hit; it must still see the new
	// triple, because cached entries are parses, not result sets.
	mustUpdate(t, db, `PREFIX ex: <http://ex/> INSERT DATA { ex:s ex:v 10 }`)
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "t") != rdf.Integer(11) {
		t.Fatalf("stale result after update: %v", res.Rows)
	}
	if st := db.QueryCacheStats(); st.Hits != 1 {
		t.Fatalf("stats %+v, want the second run to be a hit", st)
	}
}

func TestQueryCacheInvalidatedOnSetPrefix(t *testing.T) {
	db := Open()
	if _, err := db.Query(`SELECT ?s WHERE { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	before := db.QueryCacheStats()
	db.SetPrefix("ex", "http://ex/")
	after := db.QueryCacheStats()
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("epoch %d -> %d, want a bump", before.Epoch, after.Epoch)
	}
	if after.Entries != 0 {
		t.Fatalf("entries %d after SetPrefix, want 0", after.Entries)
	}
}

func TestQueryCacheInvalidatedOnFunctionRedefinition(t *testing.T) {
	db := Open()
	mustUpdate(t, db, `PREFIX ex: <http://ex/> INSERT DATA { ex:s ex:v 3 }`)
	mustUpdate(t, db, `DEFINE FUNCTION scale(?x) AS ?x * 2`)
	const q = `PREFIX ex: <http://ex/> SELECT (scale(?v) AS ?r) WHERE { ex:s ex:v ?v }`
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "r") != rdf.Integer(6) {
		t.Fatalf("%v", res.Rows)
	}
	epoch := db.QueryCacheStats().Epoch

	// Redefining the function must discard cached parses and the new
	// body must take effect on the very next call of the same text.
	mustUpdate(t, db, `DEFINE FUNCTION scale(?x) AS ?x * 10`)
	if st := db.QueryCacheStats(); st.Epoch == epoch || st.Entries != 0 {
		t.Fatalf("stats %+v, want invalidation after redefinition", st)
	}
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "r") != rdf.Integer(30) {
		t.Fatalf("stale function body: %v", res.Rows)
	}
}

func TestQueryCacheInvalidatedOnDefineInExecute(t *testing.T) {
	db := Open()
	mustUpdate(t, db, `PREFIX ex: <http://ex/> INSERT DATA { ex:s ex:v 3 }`)
	if _, err := db.Execute(`DEFINE FUNCTION f(?x) AS ?x + 1`); err != nil {
		t.Fatal(err)
	}
	epoch := db.QueryCacheStats().Epoch
	if _, err := db.Execute(`DEFINE FUNCTION f(?x) AS ?x + 2`); err != nil {
		t.Fatal(err)
	}
	if st := db.QueryCacheStats(); st.Epoch == epoch {
		t.Fatalf("stats %+v, want Execute-path DEFINE to invalidate", st)
	}
}

func TestQueryCacheInvalidatedOnForeignRegistration(t *testing.T) {
	db := Open()
	if _, err := db.Query(`SELECT ?s WHERE { ?s ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	epoch := db.QueryCacheStats().Epoch
	db.RegisterForeign("twice", 1, 1, func(args []rdf.Term) (rdf.Term, error) {
		return args[0], nil
	})
	if st := db.QueryCacheStats(); st.Epoch == epoch || st.Entries != 0 {
		t.Fatalf("stats %+v, want invalidation after RegisterForeign", st)
	}
}

func TestQueryCacheLRUEviction(t *testing.T) {
	c := newQueryCache(2)
	parse := func(src string) *sparql.Query {
		q, err := sparql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	qa := `SELECT ?a WHERE { ?a ?p ?o }`
	qb := `SELECT ?b WHERE { ?b ?p ?o }`
	qc := `SELECT ?c WHERE { ?c ?p ?o }`
	c.put(qa, parse(qa))
	c.put(qb, parse(qb))
	if _, ok := c.get(qa); !ok { // refresh a: b becomes LRU
		t.Fatal("qa missing")
	}
	c.put(qc, parse(qc))
	if _, ok := c.get(qb); ok {
		t.Fatal("qb should have been evicted as least recently used")
	}
	if _, ok := c.get(qa); !ok {
		t.Fatal("qa should survive eviction")
	}
	if _, ok := c.get(qc); !ok {
		t.Fatal("qc missing")
	}
}

// TestQueryCacheConcurrentHits hammers one hot query text from many
// goroutines while a writer keeps updating data and periodically
// invalidating via SetPrefix. Run under -race this checks that the
// shared parsed query and the cache bookkeeping are safe to use from
// parallel executions.
func TestQueryCacheConcurrentHits(t *testing.T) {
	db := Open()
	mustUpdate(t, db, `PREFIX ex: <http://ex/> INSERT DATA { ex:s ex:v 1 , 2 , 3 }`)
	const q = `PREFIX ex: <http://ex/> SELECT (SUM(?v) AS ?t) WHERE { ex:s ex:v ?v . FILTER(EXISTS { ex:s ex:v ?v }) }`

	const readers = 8
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := db.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if res.Len() != 1 {
					errs <- fmt.Errorf("rows %d", res.Len())
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := db.Update(fmt.Sprintf(
				`PREFIX ex: <http://ex/> INSERT DATA { ex:w ex:n %d }`, i)); err != nil {
				errs <- err
				return
			}
			if i%10 == 0 {
				db.SetPrefix("p", fmt.Sprintf("http://p%d/", i))
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := db.QueryCacheStats()
	if st.Hits == 0 {
		t.Fatalf("stats %+v, want concurrent readers to share cached parses", st)
	}
}

// TestCachedQueryAfterInterleavedUpdate: a compiled query cached before
// an update answers after it from the cache, and as the updated data
// demands. For each of forty generated datasets (difftest.Data), every
// generated query text (difftest.Queries) runs once to fill the cache;
// then a generated INSERT DATA and a DELETE DATA of some of the
// dataset's ground triples apply, and each text runs again: it must be
// a cache hit, and its answer (difftest.Canon) must be that of a fresh
// instance loaded with the post-update triples.
func TestCachedQueryAfterInterleavedUpdate(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data, queries, insert := difftest.Data(rng), difftest.Queries(rng), difftest.Data(rng)
		var del []string
		for i, line := range strings.Split(data, "\n") {
			if i%3 == 1 && strings.HasSuffix(line, " .") && !strings.Contains(line, "_:") {
				del = append(del, line)
			}
		}
		db := Open()
		mustUpdate(t, db, difftest.Prefixes+data)
		for _, q := range queries {
			if _, err := db.Query(difftest.Prefixes + q); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, q, err)
			}
		}
		mustUpdate(t, db, difftest.Prefixes+insert)
		mustUpdate(t, db, difftest.Prefixes+"DELETE DATA {\n"+strings.Join(del, "\n")+"\n}")
		all, err := db.Query(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
		if err != nil {
			t.Fatal(err)
		}
		fresh := Open()
		if _, err := fresh.WriteTriples(context.Background(), all.Rows, false); err != nil {
			t.Fatalf("seed %d: loading %d triples: %v", seed, len(all.Rows), err)
		}
		for _, q := range queries {
			hits := db.QueryCacheStats().Hits
			got, err := db.Query(difftest.Prefixes + q)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, q, err)
			}
			if h := db.QueryCacheStats().Hits; h != hits+1 {
				t.Fatalf("seed %d: %s: after the updates %d cache hits, want %d", seed, q, h, hits+1)
			}
			want, err := fresh.Query(difftest.Prefixes + q)
			if err != nil {
				t.Fatalf("seed %d: %s on a fresh instance: %v", seed, q, err)
			}
			if g, w := difftest.Canon(got.Rows), difftest.Canon(want.Rows); !slices.Equal(g, w) {
				t.Fatalf("seed %d: %s: cached plan after the updates answers\n%q\nwant\n%q", seed, q, g, w)
			}
		}
	}
}
