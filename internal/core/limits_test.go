package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"scisparql/internal/engine"
	"scisparql/internal/rdf"
)

// bigSSDM returns an instance over n (subject, p, integer) triples.
func bigSSDM(t *testing.T, opts Options, n int) *SSDM {
	t.Helper()
	db := OpenWith(opts)
	for i := 0; i < n; i++ {
		addTriple(db.Dataset.Default, rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.Integer(i))
	}
	return db
}

const crossProduct3 = `SELECT * WHERE {
  ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`

// TestPerCallLimitsCannotLoosen: a per-call Limits with fields larger
// than the instance defaults must not override them — the configured
// guards are a ceiling, and requests can only tighten below it.
func TestPerCallLimitsCannotLoosen(t *testing.T) {
	db := bigSSDM(t, Options{QueryTimeout: 100 * time.Millisecond, MaxBindings: 10_000}, 300)

	// A huge per-call timeout must still be clamped to the 100ms default.
	start := time.Now()
	_, err := db.QueryLimits(context.Background(), crossProduct3,
		engine.Limits{Timeout: time.Hour, MaxBindings: 1 << 60})
	if !errors.Is(err, ErrQueryTimeout) && !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("want a guard violation despite loose per-call limits, got %v", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("per-call limits loosened the configured deadline: ran %v", elapsed)
	}

	// A per-call row cap above the configured one must not raise it.
	db2 := bigSSDM(t, Options{MaxResultRows: 5}, 50)
	_, err = db2.QueryLimits(context.Background(),
		`SELECT * WHERE { ?s <http://ex/p> ?v }`, engine.Limits{MaxResultRows: 1000})
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit under the configured row cap, got %v", err)
	}

	// Tightening below the defaults still works.
	res, err := db2.QueryLimits(context.Background(),
		`SELECT * WHERE { ?s <http://ex/p> ?v } LIMIT 3`, engine.Limits{MaxResultRows: 3})
	if err != nil || res.Len() != 3 {
		t.Fatalf("tightened query should pass: %v", err)
	}
}

// TestScriptUpdatesBounded: update statements inside an Execute script
// run under the same configured guards as standalone statements.
func TestScriptUpdatesBounded(t *testing.T) {
	db := bigSSDM(t, Options{MaxBindings: 10_000}, 300)
	_, err := db.Execute(
		`INSERT { ?a <http://ex/q> ?y } WHERE { ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`)
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit from script update, got %v", err)
	}

	db2 := bigSSDM(t, Options{QueryTimeout: 100 * time.Millisecond}, 300)
	start := time.Now()
	_, err = db2.Execute(
		`DELETE { ?a <http://ex/p> ?x } WHERE { ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`)
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("want ErrQueryTimeout from script update, got %v", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("script update deadline overshoot: %v", elapsed)
	}
}

// TestUpdateLimitsClamped: UpdateLimits resolves per-call bounds
// against the defaults the same way queries do.
func TestUpdateLimitsClamped(t *testing.T) {
	db := bigSSDM(t, Options{MaxBindings: 10_000}, 300)
	_, err := db.UpdateLimits(context.Background(),
		`INSERT { ?a <http://ex/q> ?y } WHERE { ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`,
		engine.Limits{MaxBindings: 1 << 60})
	if !errors.Is(err, ErrResourceLimit) {
		t.Fatalf("want ErrResourceLimit despite loose per-call budget, got %v", err)
	}
}
