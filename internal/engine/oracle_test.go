package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scisparql/internal/difftest"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// oracleBatchSizes are the routes every metamorphic relation is checked
// on: the tuple interpreter, batches of one and of three rows (a flush
// per row or per three rows), and the default batch.
var oracleBatchSizes = []int{-1, 1, 3, 1024}

// oracleEngine loads one INSERT DATA statement (over difftest.Prefixes)
// into a fresh engine.
func oracleEngine(t *testing.T, data string) *Engine {
	t.Helper()
	e := New(rdf.NewDataset())
	st, err := sparql.ParseStatement(difftest.Prefixes + data)
	if err != nil {
		t.Fatalf("parse data: %v\n%s", err, data)
	}
	if _, err := e.Update(st); err != nil {
		t.Fatalf("load data: %v\n%s", err, data)
	}
	return e
}

// oracleRows runs one query (over difftest.Prefixes) at batch size bs.
func oracleRows(t *testing.T, e *Engine, bs int, src string) [][]rdf.Term {
	t.Helper()
	q, err := sparql.ParseQuery(difftest.Prefixes + src)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	e.BatchSize = bs
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("batch size %d, %s: %v", bs, src, err)
	}
	return res.Rows
}

// TestNaNComparesAndSortsLast: a NaN fails <, <=, > and >= (so !(?o < 5)
// keeps it) and ORDER BY puts it after +INF, on every batch size. A NaN
// that tied with every number would let both <= 5 and >= 5 keep it and
// leave the sort order to the sort algorithm.
func TestNaNComparesAndSortsLast(t *testing.T) {
	e := oracleEngine(t, difftest.NaNData)
	for _, bs := range oracleBatchSizes {
		for _, c := range difftest.NaNCases {
			if got := difftest.Subjects(oracleRows(t, e, bs, c.Query)); !slices.Equal(got, c.Want) {
				t.Errorf("batch size %d, %s: got %v, want %v", bs, c.Query, got, c.Want)
			}
		}
	}
}

// oracleSeeds is how many generated datasets each relation checks, with
// oraclePhis FILTER expressions per dataset.
const oracleSeeds, oraclePhis = 40, 4

// oraclePattern draws the pattern P a relation filters: a plain pattern
// with an OPTIONAL (so BOUND has both answers) or a join through
// ex:knows. Both bind ?s, ?o and (maybe) ?b.
func oraclePattern(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("?s ex:p%d ?o OPTIONAL { ?s ex:p%d ?b }", rng.Intn(3), rng.Intn(3))
	}
	return fmt.Sprintf("?s ex:knows ?b . ?b ex:p%d ?o", rng.Intn(3))
}

var oracleVars = []string{"?s", "?o", "?b"}

// TestTLPFilter is ternary logic partitioning (Rigger & Su, OOPSLA
// 2020): for a pattern P and a FILTER expression φ, the bag of P is the
// bag union of P filtered by φ, by !φ, and by
// COALESCE(IF(φ, false, false), true) — the rows where φ raises an
// error. It holds on every route whatever φ evaluates to, so a wrong
// three-valued rule shared by the tuple and batch paths still breaks it.
func TestTLPFilter(t *testing.T) {
	for seed := int64(1); seed <= oracleSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := oracleEngine(t, difftest.Data(rng))
		for range oraclePhis {
			p, phi := oraclePattern(rng), difftest.Filter(rng, oracleVars, 3)
			sel := "SELECT ?s ?o ?b WHERE { " + p
			for _, bs := range oracleBatchSizes {
				whole := difftest.Canon(oracleRows(t, e, bs, sel+" }"))
				var parts [][]rdf.Term
				for _, cond := range []string{phi, "!(" + phi + ")", "COALESCE(IF(" + phi + ", false, false), true)"} {
					parts = append(parts, oracleRows(t, e, bs, sel+" FILTER("+cond+") }")...)
				}
				if got := difftest.Canon(parts); !slices.Equal(got, whole) {
					t.Fatalf("seed %d, batch size %d, P = { %s }, φ = %s:\nP:         %v\npartition: %v", seed, bs, p, phi, whole, got)
				}
			}
		}
	}
}

// TestNoRECFilter is non-optimizing reference engine construction
// (Rigger & Su, ESEC/FSE 2020): COUNT(*) of P filtered by φ equals the
// SUM over P of COALESCE(IF(φ, 1, 0), 0). The second form evaluates φ
// as a projection on every row, where no filter placement applies.
func TestNoRECFilter(t *testing.T) {
	for seed := int64(1); seed <= oracleSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := oracleEngine(t, difftest.Data(rng))
		for range oraclePhis {
			p, phi := oraclePattern(rng), difftest.Filter(rng, oracleVars, 3)
			for _, bs := range oracleBatchSizes {
				count := oracleRows(t, e, bs, "SELECT (COUNT(*) AS ?n) WHERE { "+p+" FILTER("+phi+") }")
				sum := oracleRows(t, e, bs, "SELECT (SUM(COALESCE(IF("+phi+", 1, 0), 0)) AS ?n) WHERE { "+p+" }")
				if !rdf.SameTerm(count[0][0], sum[0][0]) {
					t.Fatalf("seed %d, batch size %d, P = { %s }, φ = %s: COUNT %v, SUM %v", seed, bs, p, phi, count[0][0], sum[0][0])
				}
			}
		}
	}
}

// TestOrderByAgreesAcrossBatchSizes: ORDER BY over keys of every
// generated kind returns the same rows in the same order on every
// route, with and without the top-K heap. Compare must be a total
// preorder for this to hold; a NaN that tied with every number broke
// it.
func TestOrderByAgreesAcrossBatchSizes(t *testing.T) {
	queries := []string{
		`SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s`,
		`SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY DESC(?o) ?s LIMIT 5`,
	}
	for seed := int64(1); seed <= oracleSeeds; seed++ {
		e := oracleEngine(t, difftest.Data(rand.New(rand.NewSource(seed))))
		for _, q := range queries {
			want := difftest.Rows(oracleRows(t, e, oracleBatchSizes[0], q))
			for _, bs := range oracleBatchSizes[1:] {
				if got := difftest.Rows(oracleRows(t, e, bs, q)); !slices.Equal(got, want) {
					t.Fatalf("seed %d, %s: batch size %d returns\n%v\nthe tuple path\n%v", seed, q, bs, got, want)
				}
			}
		}
	}
}
