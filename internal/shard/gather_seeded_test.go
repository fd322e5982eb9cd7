package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
)

// seededTerm draws one object term, as SPARQL text, from the kinds that
// have broken a route before: IRIs that are also subjects (so joins and
// paths meet), blank objects, integers, NaN/±Inf/−0 and exact doubles,
// dateTimes with nanoseconds and an offset, lang strings with quotes,
// newlines and control characters, and typed literals with escaped
// lexicals.
func seededTerm(rng *rand.Rand) string {
	switch rng.Intn(7) {
	case 0:
		return fmt.Sprintf("ex:s%d", rng.Intn(6))
	case 1:
		return fmt.Sprintf("_:b%d", rng.Intn(4))
	case 2:
		return fmt.Sprint(rng.Intn(13) - 3)
	case 3:
		return fmt.Sprintf(`"%s"^^xsd:double`, []string{"NaN", "INF", "-INF", "-0", "0", "1.5", "0.25"}[rng.Intn(7)])
	case 4:
		return fmt.Sprintf(`"2020-01-0%dT03:04:05.%09d%s"^^xsd:dateTime`, 1+rng.Intn(3), rng.Intn(1e9),
			[]string{"Z", "+05:45", "-09:30"}[rng.Intn(3)])
	case 5:
		return []string{`"say \"hej\"\nthen leave"@sv`, `"ctl\u0001\u001f end"@en`, `"line\r\nbreak"@en-GB`, `"plain"`}[rng.Intn(4)]
	}
	return []string{`"x\\y \"q\""^^ex:dt`, `"<odd> > text\n"^^ex:dt`, `"tab\tin"^^ex:dt`}[rng.Intn(3)]
}

// seededData is one seed's dataset: a few dozen triples over IRI and
// blank subjects, three plain predicates and ex:knows between subjects.
func seededData(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("INSERT DATA {\n")
	subject := func() string {
		if rng.Intn(4) == 0 {
			return fmt.Sprintf("_:b%d", rng.Intn(4))
		}
		return fmt.Sprintf("ex:s%d", rng.Intn(6))
	}
	for n := 20 + rng.Intn(20); n > 0; n-- {
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, "%s ex:knows %s .\n", subject(), subject())
		} else {
			fmt.Fprintf(&sb, "%s ex:p%d %s .\n", subject(), rng.Intn(3), seededTerm(rng))
		}
	}
	sb.WriteString("}")
	return sb.String()
}

// seededQueries fills the corpus's gather-mode shapes with constants
// drawn for one seed. A query's blank is a variable, so a constant is
// never one; ORDER BY … LIMIT projects only its IRI sort key, so the
// rows a limit keeps do not depend on how ties fall.
func seededQueries(rng *rand.Rand) []string {
	pred := func() string { return fmt.Sprintf("ex:p%d", rng.Intn(3)) }
	constant := func() string {
		for {
			if t := seededTerm(rng); !strings.HasPrefix(t, "_:") {
				return t
			}
		}
	}
	return []string{
		fmt.Sprintf(`SELECT ?x ?y ?o WHERE { ?x ex:knows ?y . ?y %s ?o }`, pred()),
		fmt.Sprintf(`SELECT ?s ?a ?b WHERE { ?s %s ?a OPTIONAL { ?s %s ?b } }`, pred(), pred()),
		fmt.Sprintf(`SELECT ?s ?o WHERE { { ?s %s ?o } UNION { ?s %s %s } }`, pred(), pred(), constant()),
		fmt.Sprintf(`SELECT ?x ?o WHERE { ?x ex:knows ?y . ?y %s ?o FILTER(?o != %s) }`, pred(), constant()),
		fmt.Sprintf(`SELECT ?s WHERE { ?s %s ?o FILTER(isIRI(?s)) } ORDER BY %s(?s) LIMIT %d`,
			pred(), []string{"ASC", "DESC"}[rng.Intn(2)], 1+rng.Intn(4)),
		fmt.Sprintf(`SELECT ?z WHERE { ex:s%d ex:knows+ ?z }`, rng.Intn(6)),
		fmt.Sprintf(`SELECT ?s ?a WHERE { ?s %s ?a FILTER %sEXISTS { ?s %s ?b } }`, pred(), []string{"", "NOT "}[rng.Intn(2)], pred()),
		fmt.Sprintf(`SELECT (AVG(?o) AS ?m) (COUNT(?o) AS ?n) WHERE { ?s %s ?o FILTER(isNumeric(?o)) }`, pred()),
	}
}

// TestGatherMatchesSingleNodeSeeded: for fifty seeds, a generated
// dataset and the gather-mode query shapes filled with generated
// constants answer on 1, 2 and 4 local shards and on 4 loopback servers
// exactly as on a single node, compared as bags (canon). The single node
// also answers each query through the tuple interpreter and in batches
// of one and of three rows, which flush every row or every three rows,
// against its own default-batch answer. Gathers recycle
// their scratch dataset, so two passes also run on the 4-shard cluster:
// every query from four goroutines at once, and every query right after
// a gather that failed when one leg died mid-scan.
func TestGatherMatchesSingleNodeSeeded(t *testing.T) {
	const prefixes = "PREFIX ex: <http://ex/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			data := prefixes + seededData(rng)
			queries := seededQueries(rng)
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
