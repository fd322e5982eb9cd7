package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
)

// TestSecondOrderDeadlineFailsTyped: a deadline that expires inside MAP
// or CONDENSE fails the query with ErrQueryTimeout in every position a
// second-order call can take. Reported as an expression error it would
// read as an unbound cell (projection, BIND) or as a false FILTER —
// zero rows and no error, a silently wrong answer.
func TestSecondOrderDeadlineFailsTyped(t *testing.T) {
	e := newEngine(t, "")
	update(t, e, `DEFINE FUNCTION mymax(?a, ?b) AS if(?a > ?b, ?a, ?b)`)
	const big = `iota(2000000)` // far more work than the deadline allows
	for _, src := range []string{
		`SELECT (condense("mymax", ` + big + `) AS ?m) WHERE {}`,
		`SELECT (asum(map("sqrt", ` + big + `)) AS ?s) WHERE {}`,
		`SELECT ?m WHERE { BIND(condense("mymax", ` + big + `) AS ?m) }`,
		`SELECT ?x WHERE { BIND(1 AS ?x) FILTER(condense("mymax", ` + big + `) > 0) }`,
	} {
		res, err := e.QueryContext(context.Background(), parse(t, src), Limits{Timeout: 5 * time.Millisecond})
		if !errors.Is(err, ErrQueryTimeout) {
			t.Errorf("%s\n\twant ErrQueryTimeout, got err %v with %d rows", src, err, resLen(res))
		}
	}
}

func resLen(r *Results) int {
	if r == nil {
		return 0
	}
	return r.Len()
}

// TestSecondOrderFunctionValues: MAP and CONDENSE give the answer that
// applying the function value element by element with apply() gives,
// for every kind of function value — closures, functional views,
// bodies reading the graph, wrong arities, recursion — and MAP's result
// is an integer array exactly when every value it produced was one.
func TestSecondOrderFunctionValues(t *testing.T) {
	e := newEngine(t, `@prefix ex: <http://ex/> . ex:s ex:val 2 , 4 ; ex:weight 10 .`)
	for _, def := range []string{
		`DEFINE FUNCTION sub(?a, ?b) AS ?a - ?b`,
		`DEFINE FUNCTION mix(?a, ?k, ?b) AS ?a * ?k + ?b`,
		`DEFINE FUNCTION plusw(?x) AS SELECT ?y WHERE { <http://ex/s> <http://ex/weight> ?w BIND(?x + ?w AS ?y) }`,
		`DEFINE FUNCTION vmax(?a, ?b) AS SELECT ?m WHERE { BIND(if(?a > ?b, ?a, ?b) AS ?m) }`,
		`DEFINE FUNCTION known(?x) AS if(EXISTS { ?s <http://ex/val> ?x }, 1, 0)`,
		`DEFINE FUNCTION rc(?a, ?b) AS condense("rc", array(?a, ?b))`,
		`DEFINE FUNCTION sgn(?x) AS if(?x > 1, 1, 0)`,
		`DEFINE FUNCTION halfbig(?x) AS if(?x > 2, ?x * 0.5, ?x)`,
		`DEFINE FUNCTION halfsmall(?x) AS if(?x < 2, ?x * 0.5, ?x)`,
	} {
		update(t, e, def)
	}
	const ints, floats = `array(3, 1, 4, 1, 5)`, `array(0.5, 2.25, 4, 9)`
	elem := func(i int) string { return fmt.Sprintf("?a[%d]", i) }
	for _, tc := range []struct {
		name, op, fn, arr string
		n                 int
		unbound           bool // the call is an expression error both ways
	}{
		{"closure hole first", "map", `sub(_, 10)`, ints, 5, false},
		{"closure hole second", "map", `sub(10, _)`, ints, 5, false},
		{"closure holes around a bound argument", "condense", `mix(_, 2, _)`, ints, 5, false},
		{"view in map", "map", `"plusw"`, ints, 5, false},
		{"view in condense", "condense", `"vmax"`, ints, 5, false},
		{"exists over the graph", "map", `"known"`, ints, 5, false},
		{"builtin", "map", `"abs"`, `array(-3, 1, -4)`, 3, false},
		{"foreign", "condense", `"pow"`, floats, 4, false},
		{"expression function in condense", "condense", `"sub"`, floats, 4, false},
		{"wrong arity", "map", `"sub"`, ints, 5, true},
		{"wrong arity foreign", "condense", `"sqrt"`, ints, 5, true},
		{"wrong hole count", "condense", `sub(_, 1)`, ints, 5, true},
		{"recursion through condense", "condense", `"rc"`, ints, 5, true},
		{"int input, float results", "map", `"sqrt"`, ints, 5, false},
		{"float input, int results", "map", `"sgn"`, floats, 4, false},
		{"ints then a float", "map", `"halfbig"`, ints, 5, false},
		{"a float then ints", "map", `"halfsmall"`, ints, 5, false},
	} {
		var want string
		if tc.op == "map" {
			calls := make([]string, tc.n)
			for i := range calls {
				calls[i] = fmt.Sprintf("apply(%s, %s)", tc.fn, elem(i+1))
			}
			want = "array(" + strings.Join(calls, ", ") + ")"
		} else {
			want = elem(1)
			for i := 2; i <= tc.n; i++ {
				want = fmt.Sprintf("apply(%s, %s, %s)", tc.fn, want, elem(i))
			}
		}
		src := fmt.Sprintf(`SELECT (%s(%s, ?a) AS ?got) (%s AS ?want) WHERE { BIND(%s AS ?a) }`, tc.op, tc.fn, want, tc.arr)
		res := query(t, e, src)
		got, wantT := res.Get(0, "got"), res.Get(0, "want")
		if tc.unbound != (got == nil) || !sameValue(got, wantT) {
			t.Errorf("%s: %s\n\tgot %v, element by element %v", tc.name, src, got, wantT)
		}
	}

	// A wrong arity stays an expression error, not a query failure.
	c := &evalCtx{eng: e, graph: e.Dataset.Default}
	v, err := array.FromInts([]int64{1, 2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range []func() (rdf.Term, error){
		func() (rdf.Term, error) { return bMap(c, []rdf.Term{rdf.String{Val: "sub"}, rdf.NewArray(v)}) },
		func() (rdf.Term, error) { return bCondense(c, []rdf.Term{rdf.String{Val: "sqrt"}, rdf.NewArray(v)}) },
	} {
		var ee *exprError
		if _, err := call(); !errors.As(err, &ee) {
			t.Errorf("wrong arity: want an expression error, got %v", err)
		}
	}
}

// sameValue compares two results term for term; arrays by element type,
// shape and elements.
func sameValue(a, b rdf.Term) bool {
	aa, ok1 := a.(rdf.Array)
	ba, ok2 := b.(rdf.Array)
	if !ok1 || !ok2 {
		return a == b
	}
	if aa.A.Etype() != ba.A.Etype() || !array.ShapeEqual(aa.A.Shape, ba.A.Shape) {
		return false
	}
	for i := 0; i < aa.A.Count(); i++ {
		x, _ := aa.A.At(i)
		y, _ := ba.A.At(i)
		if x != y {
			return false
		}
	}
	return true
}

// TestCondenseSameFunctionConcurrently: two queries fold with the same
// DEFINE'd function at once. Each call resolves the function into state
// of its own; the shared Function is only read.
func TestCondenseSameFunctionConcurrently(t *testing.T) {
	e := newEngine(t, "")
	update(t, e, `DEFINE FUNCTION mymax(?a, ?b) AS if(?a > ?b, ?a, ?b)`)
	q := parse(t, `SELECT (condense("mymax", iota(5000)) AS ?m) (condense(mymax(_, _), iota(300)) AS ?c) WHERE {}`)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := e.QueryContext(context.Background(), q, Limits{})
				if err != nil {
					t.Error(err)
					return
				}
				if m, c := res.Get(0, "m"), res.Get(0, "c"); m != rdf.Integer(5000) || c != rdf.Integer(300) {
					t.Errorf("got %v and %v, want 5000 and 300", m, c)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestGuardSecondOrderBytesPerElem bounds what MAP and CONDENSE allocate
// per element of a 4 096-element float array. A call resolves its
// function value once and reuses one argument slice; an expression body
// evaluates under one derived context and one parameter binding for the
// whole array; MAP writes straight into its result slab; and CONDENSE
// passes its accumulator on as the term the function returned. What is
// left is boxing each element as a term (8 B) and, for MAP, the boxed
// result and the 8 B slab element: 8.9–9.0 B for the CONDENSE and
// 24.8–25.0 B for the MAP over forty runs. Resolving the function per
// element, with a fresh context and parameter map per call and a
// staging buffer before the slab, cost 466 and 65 B.
func TestGuardSecondOrderBytesPerElem(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are unstable under -race")
	}
	const n = 4096
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i*7919%n) + 0.5 // positive, not monotone
	}
	v, err := array.FromFloats(data, n)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, "")
	addTriple(e.Dataset.Default, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/vec"), rdf.NewArray(v))
	update(t, e, `DEFINE FUNCTION bmax(?a, ?b) AS if(?a > ?b, ?a, ?b)`)
	for _, tc := range []struct {
		expr  string
		bound float64
	}{
		{`condense("bmax", ?v)`, 10.4},
		{`map("sqrt", ?v)`, 28.8},
	} {
		q := parse(t, `SELECT (`+tc.expr+` AS ?r) WHERE { <http://ex/s> <http://ex/vec> ?v }`)
		const runs = 20
		var before, after runtime.MemStats
		for i := -1; i < runs; i++ { // the first run warms the plan and numeric memos
			if i == 0 {
				runtime.ReadMemStats(&before)
			}
			if res, err := e.Query(q); err != nil || res.Get(0, "r") == nil {
				t.Fatalf("%s: %v, err %v", tc.expr, res, err)
			}
		}
		runtime.ReadMemStats(&after)
		perElem := float64(after.TotalAlloc-before.TotalAlloc) / runs / n
		t.Logf("%s: %.1f B per element", tc.expr, perElem)
		if perElem > tc.bound {
			t.Errorf("%s allocates %.1f B per element, want <= %.0f", tc.expr, perElem, tc.bound)
		}
	}
}
