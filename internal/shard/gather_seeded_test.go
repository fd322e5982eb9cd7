package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scisparql/internal/core"
	"scisparql/internal/difftest"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
)

// TestGatherMatchesSingleNodeSeeded: for fifty seeds, a generated
// dataset and the gather-mode query shapes filled with generated
// constants (package difftest) answer on 1, 2 and 4 local shards and on 4 loopback servers
// exactly as on a single node, compared as bags (difftest.Canon). The single node
// also answers each query through the tuple interpreter and in batches
// of one and of three rows, which flush every row or every three rows,
// against its own default-batch answer. Gathers recycle
// their scratch dataset, so two passes also run on the 4-shard cluster:
// every query from four goroutines at once, and every query right after
// a gather that failed when one leg died mid-scan.
func TestGatherMatchesSingleNodeSeeded(t *testing.T) {
	const prefixes = difftest.Prefixes
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			data := prefixes + difftest.Data(rng)
			queries := difftest.Queries(rng)
			ref := core.Open()
			if _, err := ref.Update(data); err != nil {
				t.Fatalf("seed %d: single node: %v\n%s", seed, err, data)
			}
			want := make([]*engine.Results, len(queries))
			for i, q := range queries {
				var err error
				if want[i], err = ref.Query(prefixes + q); err != nil {
					t.Fatalf("seed %d, query %s: single node: %v", seed, q, err)
				}
			}
			for _, bs := range []int{-1, 1, 3} {
				ref.Engine.BatchSize = bs
				for i, q := range queries {
					label := fmt.Sprintf("seed %d, single node at batch size %d, query %s", seed, bs, q)
					got, err := ref.Query(prefixes + q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameResults(t, label, want[i], got)
				}
			}
			run := func(node *core.SSDM, q string) (*engine.Results, error) {
				got, tr, err := node.QueryAnalyze(context.Background(), prefixes+q, engine.Limits{})
				if err == nil && tr.ShardMode != "gather" {
					err = fmt.Errorf("dispatched as %q, want gather", tr.ShardMode)
				}
				return got, err
			}
			check := func(node *core.SSDM, route string) {
				t.Helper()
				for i, q := range queries {
					label := fmt.Sprintf("seed %d, %s, query %s", seed, route, q)
					got, err := run(node, q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameResults(t, label, want[i], got)
				}
			}
			load := func(route string, node *core.SSDM) *core.SSDM {
				t.Helper()
				if _, err := node.Update(data); err != nil {
					t.Fatalf("seed %d, %s: %v\n%s", seed, route, err, data)
				}
				return node
			}
			for _, n := range []int{1, 2, 4} {
				node, _ := cluster(t, n)
				route := fmt.Sprintf("%d local shards", n)
				check(load(route, node), route)
			}
			remote, _, _ := remoteCluster(t, 4)
			check(load("4 loopback servers", remote), "4 loopback servers")

			node, c := cluster(t, 4)
			load("4 local shards", node)
			var wg sync.WaitGroup
			got := make([][]*engine.Results, 4)
			errs := make([]error, 4)
			for w := range got {
				got[w] = make([]*engine.Results, len(queries))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range queries {
						// Each goroutine starts at a different query.
						j := (i + w) % len(queries)
						if got[w][j], errs[w] = run(node, queries[j]); errs[w] != nil {
							return
						}
					}
				}()
			}
			wg.Wait()
			for w := range got {
				if errs[w] != nil {
					t.Fatalf("seed %d, goroutine %d: %v", seed, w, errs[w])
				}
				for i, q := range queries {
					sameResults(t, fmt.Sprintf("seed %d, goroutine %d, query %s", seed, w, q), want[i], got[w][i])
				}
			}
			k := rng.Intn(4)
			dying := &failingShard{Shard: c.shards[k]}
			c.shards[k] = dying
			for i, q := range queries {
				dying.after.Store(int64(rng.Intn(4)))
				if _, err := run(node, q); !errors.Is(err, core.ErrShardUnavailable) {
					t.Fatalf("seed %d, query %s: a leg that died gave %v", seed, q, err)
				}
				dying.after.Store(-1)
				label := fmt.Sprintf("seed %d, after a failed gather, query %s", seed, q)
				res, err := run(node, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameResults(t, label, want[i], res)
			}
		})
	}
}

// failingShard is a leg that dies mid-scan: with after ≥ 0, each scan
// emits at most that many rows and then fails, whatever is left of it.
type failingShard struct {
	Shard
	after atomic.Int64
}

func (f *failingShard) Scan(ctx context.Context, s, p, o rdf.Term, emit func(s, p, o rdf.Term) bool) error {
	k := f.after.Load()
	if k < 0 {
		return f.Shard.Scan(ctx, s, p, o, emit)
	}
	err := f.Shard.Scan(ctx, s, p, o, func(s, p, o rdf.Term) bool {
		if k--; k < 0 {
			return false
		}
		return emit(s, p, o)
	})
	return errors.Join(err, errors.New("scan failed mid-stream"))
}

// TestNaNSortsLastOnShards: the NaN repro on four local shards answers,
// in gather mode, exactly as a single node does — NaN after +INF in
// ORDER BY, failing every relational comparison in FILTER.
func TestNaNSortsLastOnShards(t *testing.T) {
	node, _ := cluster(t, 4)
	if _, err := node.Update(difftest.Prefixes + difftest.NaNData); err != nil {
		t.Fatal(err)
	}
	for _, c := range difftest.NaNCases {
		res, tr, err := node.QueryAnalyze(context.Background(), difftest.Prefixes+c.Query, engine.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", c.Query, err)
		}
		if tr.ShardMode != "gather" {
			t.Fatalf("%s: dispatched as %q, want gather", c.Query, tr.ShardMode)
		}
		if got := difftest.Subjects(res.Rows); !slices.Equal(got, c.Want) {
			t.Errorf("%s: got %v, want %v", c.Query, got, c.Want)
		}
	}
}

// TestMinMaxOverNaNOrderFree: MIN and MAX over a group holding NaN,
// ±INF, −0 and a seeded finite double take NaN as the largest value
// (ORDER BY's rule), so every order the values arrive in gives MIN −INF
// and MAX NaN: through the tuple interpreter, in batches of 1, 3 and
// 1024 rows, and pushed down to four local shards whose partials merge
// in another order again. The values are interned in each permutation's
// order, which is the order a scan meets them in.
func TestMinMaxOverNaNOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []string{`"NaN"^^xsd:double`, `"INF"^^xsd:double`, `"-INF"^^xsd:double`, `"-0"^^xsd:double`,
		fmt.Sprintf(`"%g"^^xsd:double`, rng.NormFloat64()*100)}
	const q = difftest.Prefixes + `SELECT (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) WHERE { ?s ex:p ?o }`
	check := func(label string, res *engine.Results) {
		t.Helper()
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
			t.Fatalf("%s: rows %v", label, res.Rows)
		}
		lo, lok := rdf.Numeric(res.Rows[0][0])
		hi, hok := rdf.Numeric(res.Rows[0][1])
		if !lok || !hok || !math.IsInf(lo.Float(), -1) || !math.IsNaN(hi.Float()) {
			t.Fatalf("%s: MIN %v, MAX %v, want -INF and NaN", label, res.Rows[0][0], res.Rows[0][1])
		}
	}
	var permute func(k int)
	permute = func(k int) {
		if k < len(values) {
			for i := k; i < len(values); i++ {
				values[k], values[i] = values[i], values[k]
				permute(k + 1)
				values[k], values[i] = values[i], values[k]
			}
			return
		}
		var data strings.Builder
		data.WriteString(difftest.Prefixes + "INSERT DATA {")
		for i, v := range values {
			fmt.Fprintf(&data, " ex:s%d ex:p %s .", i, v)
		}
		data.WriteString(" }")
		node := core.Open()
		if _, err := node.Update(data.String()); err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{-1, 1, 3, 1024} {
			node.Engine.BatchSize = bs
			res, err := node.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%v, batch size %d", values, bs), res)
		}
		sharded, _ := cluster(t, 4)
		if _, err := sharded.Update(data.String()); err != nil {
			t.Fatal(err)
		}
		res, tr, err := sharded.QueryAnalyze(context.Background(), q, engine.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.ShardMode != "pushdown" {
			t.Fatalf("dispatched as %q, want pushdown", tr.ShardMode)
		}
		check(fmt.Sprintf("%v, 4 local shards", values), res)
	}
	permute(0)
}
