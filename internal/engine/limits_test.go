package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// bigEngine returns an engine over n (subject, p, integer) triples —
// enough fuel that an unbounded k-way cross product never finishes on
// its own.
func bigEngine(t *testing.T, n int) *Engine {
	t.Helper()
	ds := rdf.NewDataset()
	for i := 0; i < n; i++ {
		addTriple(ds.Default, rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.Integer(i))
	}
	return New(ds)
}

// crossProduct3 enumerates n^3 bindings: the classic runaway query.
const crossProduct3 = `SELECT * WHERE {
  ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`

func parse(t *testing.T, src string) *sparql.Query {
	t.Helper()
	q, err := sparql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestDeadlineStopsCrossProduct: the acceptance scenario — a 3-way
// unbounded cross product under a 100ms deadline must return
// ErrQueryTimeout well under 500ms, proving the guard polls inside the
// innermost enumeration loop rather than between operators.
func TestDeadlineStopsCrossProduct(t *testing.T) {
	e := bigEngine(t, 300) // 2.7e7 * 300 bindings unbounded
	start := time.Now()
	_, err := e.QueryContext(context.Background(), parse(t, crossProduct3), Limits{Timeout: 100 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("want ErrQueryTimeout, got %v", err)
	}
	if elapsed >= 500*time.Millisecond {
		t.Fatalf("deadline overshoot: %v", elapsed)
	}
}

// TestCancelStopsCrossProduct: explicit cancellation (a client gone
// away) aborts with ErrQueryCancelled promptly.
func TestCancelStopsCrossProduct(t *testing.T) {
	e := bigEngine(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.QueryContext(ctx, parse(t, crossProduct3), Limits{})
	if !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("want ErrQueryCancelled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("cancellation overshoot: %v", elapsed)
	}
}

// TestMaxBindingsBudget: the intermediate-bindings budget cuts off a
// runaway join even with no deadline set.
func TestMaxBindingsBudget(t *testing.T) {
	e := bigEngine(t, 300)
	_, err := e.QueryContext(context.Background(), parse(t, crossProduct3), Limits{MaxBindings: 10_000})
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit, got %v", err)
	}
}

// TestMaxResultRows: exceeding the row cap is an error, not silent
// truncation; a cap at or above the true size passes untouched.
func TestMaxResultRows(t *testing.T) {
	e := bigEngine(t, 50)
	q := parse(t, `SELECT * WHERE { ?s <http://ex/p> ?v }`)
	if _, err := e.QueryContext(context.Background(), q, Limits{MaxResultRows: 10}); !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit, got %v", err)
	}
	res, err := e.QueryContext(context.Background(), q, Limits{MaxResultRows: 50})
	if err != nil || res.Len() != 50 {
		t.Fatalf("cap == size must pass: %v, %d rows", err, res.Len())
	}
}

// TestDeadlineStopsPropertyPath: transitive path expansion over a
// dense cyclic graph honors the deadline (the bfs frontier checks the
// guard).
func TestDeadlineStopsPropertyPath(t *testing.T) {
	ds := rdf.NewDataset()
	const n = 600
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 7, 31, 101} {
			addTriple(ds.Default,
				rdf.IRI(fmt.Sprintf("http://ex/n%d", i)),
				rdf.IRI("http://ex/knows"),
				rdf.IRI(fmt.Sprintf("http://ex/n%d", (i+d)%n)))
		}
	}
	e := New(ds)
	q := parse(t, `SELECT * WHERE { ?a <http://ex/knows>+ ?b . ?b <http://ex/knows>+ ?c }`)
	start := time.Now()
	_, err := e.QueryContext(context.Background(), q, Limits{Timeout: 100 * time.Millisecond})
	if !errors.Is(err, ErrQueryTimeout) && !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("want timeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("path deadline overshoot: %v", elapsed)
	}
}

// TestPanicTrappedToErrInternal: a foreign function that panics must
// surface as ErrInternal — and leave the engine fully usable.
func TestPanicTrappedToErrInternal(t *testing.T) {
	e := bigEngine(t, 10)
	e.Funcs.RegisterForeign("boom", 1, 1, func(args []rdf.Term) (rdf.Term, error) {
		panic("deliberate test panic")
	})
	_, err := e.QueryContext(context.Background(),
		parse(t, `SELECT (boom(?v) AS ?b) WHERE { ?s <http://ex/p> ?v }`), Limits{})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
	// The engine survives: a normal query still works.
	res, err := e.QueryContext(context.Background(),
		parse(t, `SELECT * WHERE { ?s <http://ex/p> ?v }`), Limits{})
	if err != nil || res.Len() != 10 {
		t.Fatalf("engine unusable after trapped panic: %v", err)
	}
}

// TestUpdateContextCancelled: an already-cancelled context stops an
// update before any mutation happens.
func TestUpdateContextCancelled(t *testing.T) {
	e := bigEngine(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := sparql.ParseStatement(`DELETE { ?s <http://ex/p> ?v } WHERE { ?s <http://ex/p> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.UpdateContext(ctx, st); !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("want ErrQueryCancelled, got %v", err)
	}
	res, _ := e.QueryString(`SELECT * WHERE { ?s <http://ex/p> ?v }`)
	if res.Len() != 10 {
		t.Fatalf("cancelled update must not mutate: %d rows left", res.Len())
	}
}

// TestZeroLimitsUnbounded: zero-valued Limits change nothing — the
// plain Query path still returns full results.
func TestZeroLimitsUnbounded(t *testing.T) {
	e := bigEngine(t, 100)
	res, err := e.QueryContext(context.Background(),
		parse(t, `SELECT * WHERE { ?s <http://ex/p> ?v }`), Limits{})
	if err != nil || res.Len() != 100 {
		t.Fatalf("unbounded query failed: %v, %d rows", err, res.Len())
	}
}

// TestMaxResultRowsIncremental: the row cap fires while rows are being
// built, not after the whole result set is materialized — a cross
// product that would produce 2.7e7 rows with no bindings budget set
// must fail in bounded time, proving the overrun was caught at the
// cap, not post-hoc.
func TestMaxResultRowsIncremental(t *testing.T) {
	e := bigEngine(t, 300)
	start := time.Now()
	_, err := e.QueryContext(context.Background(), parse(t, crossProduct3), Limits{MaxResultRows: 100})
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit, got %v", err)
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Fatalf("row cap enforced post-hoc: took %v", elapsed)
	}
}

// TestMaxResultRowsNotEagerWithLimitOrDistinct: the incremental check
// must not fail queries whose final output a later stage trims back
// under the cap — LIMIT below the cap and DISTINCT deduplication both
// keep the result legal even when intermediate rows exceed it.
func TestMaxResultRowsNotEagerWithLimitOrDistinct(t *testing.T) {
	ds := rdf.NewDataset()
	for i := 0; i < 100; i++ {
		addTriple(ds.Default, rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.Integer(i%3))
	}
	e := New(ds)

	res, err := e.QueryContext(context.Background(),
		parse(t, `SELECT * WHERE { ?s <http://ex/p> ?v } LIMIT 5`), Limits{MaxResultRows: 10})
	if err != nil || res.Len() != 5 {
		t.Fatalf("LIMIT below the cap must pass: %v, %d rows", err, res.Len())
	}

	res, err = e.QueryContext(context.Background(),
		parse(t, `SELECT DISTINCT ?v WHERE { ?s <http://ex/p> ?v }`), Limits{MaxResultRows: 10})
	if err != nil || res.Len() != 3 {
		t.Fatalf("DISTINCT under the cap must pass: %v, %d rows", err, res.Len())
	}
}

// TestUpdateLimitsBoundsWhere: the bindings budget and deadline guard
// the WHERE evaluation of DELETE/INSERT exactly as they guard a query.
func TestUpdateLimitsBoundsWhere(t *testing.T) {
	e := bigEngine(t, 300)
	st, err := sparql.ParseStatement(
		`INSERT { ?a <http://ex/q> ?y } WHERE { ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.UpdateLimits(context.Background(), st, Limits{MaxBindings: 10_000}); !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit from update WHERE, got %v", err)
	}
	start := time.Now()
	if _, err := e.UpdateLimits(context.Background(), st, Limits{Timeout: 100 * time.Millisecond}); !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("want ErrQueryTimeout from update WHERE, got %v", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("update deadline overshoot: %v", elapsed)
	}
}

// TestLimitsTighten: composition is min-wins on every axis, with zero
// (or a negative value off the wire) meaning "defer".
func TestLimitsTighten(t *testing.T) {
	lim := func(d time.Duration, r int, b int64) Limits {
		return Limits{Timeout: d, MaxResultRows: r, MaxBindings: b}
	}
	const s = time.Second
	for i, tc := range []struct {
		call, other, want Limits
	}{
		{lim(0, 0, 0), lim(0, 0, 0), lim(0, 0, 0)},
		{lim(s, 10, 100), lim(0, 0, 0), lim(s, 10, 100)},
		{lim(0, 0, 0), lim(2*s, 20, 200), lim(2*s, 20, 200)},
		{lim(s, 30, 100), lim(2*s, 20, 200), lim(s, 20, 100)},
		{lim(3*s, 10, 300), lim(2*s, 20, 200), lim(2*s, 10, 200)},
		{lim(-s, -1, -1), lim(2*s, 20, 200), lim(2*s, 20, 200)},
	} {
		if got := tc.call.Tighten(tc.other); got != tc.want {
			t.Errorf("case %d: %+v.Tighten(%+v) = %+v, want %+v", i, tc.call, tc.other, got, tc.want)
		}
	}
}
