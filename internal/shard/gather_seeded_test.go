package shard

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"scisparql/internal/core"
	"scisparql/internal/engine"
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
// constants answer on 1, 2 and 4 local shards exactly as on a single
// node, compared as bags (canon).
func TestGatherMatchesSingleNodeSeeded(t *testing.T) {
	const prefixes = "PREFIX ex: <http://ex/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := prefixes + seededData(rng)
		queries := seededQueries(rng)
		ref := core.Open()
		if _, err := ref.Update(data); err != nil {
			t.Fatalf("seed %d: single node: %v\n%s", seed, err, data)
		}
		for _, n := range []int{1, 2, 4} {
			node, _ := cluster(t, n)
			if _, err := node.Update(data); err != nil {
				t.Fatalf("seed %d, %d shards: %v\n%s", seed, n, err, data)
			}
			for _, q := range queries {
				label := fmt.Sprintf("seed %d, %d shards, query %s", seed, n, q)
				want, err := ref.Query(prefixes + q)
				if err != nil {
					t.Fatalf("%s: single node: %v", label, err)
				}
				got, tr, err := node.QueryAnalyze(context.Background(), prefixes+q, engine.Limits{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if tr.ShardMode != "gather" {
					t.Fatalf("%s: dispatched as %q, want gather", label, tr.ShardMode)
				}
				sameResults(t, label, want, got)
			}
		}
	}
}
