// Package difftest generates seeded inputs for differential and
// metamorphic query tests — datasets, query shapes and FILTER
// expressions over the term kinds that have broken a route before — and
// renders result rows so that two routes' answers compare as strings.
// It imports only rdf and the standard library, so the tests of every
// package, the engine's included, can use it.
package difftest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"scisparql/internal/rdf"
)

// Prefixes declares the ex: and xsd: prefixes the generated text uses.
const Prefixes = "PREFIX ex: <http://ex/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"

// Term draws one object term, as SPARQL text, from the kinds that
// have broken a route before: IRIs that are also subjects (so joins and
// paths meet), blank objects, integers, NaN/±Inf/−0 and exact doubles,
// dateTimes with nanoseconds and an offset, lang strings with quotes,
// newlines and control characters, and typed literals with escaped
// lexicals.
func Term(rng *rand.Rand) string {
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

// Data is one seed's dataset, as an INSERT DATA statement: a few dozen
// triples over IRI and blank subjects, three plain predicates and
// ex:knows between subjects.
func Data(rng *rand.Rand) string {
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
			fmt.Fprintf(&sb, "%s ex:p%d %s .\n", subject(), rng.Intn(3), Term(rng))
		}
	}
	sb.WriteString("}")
	return sb.String()
}

// constant draws a term that may stand in a query: anything Term draws
// but a blank, which a query reads as a variable.
func constant(rng *rand.Rand) string {
	for {
		if t := Term(rng); !strings.HasPrefix(t, "_:") {
			return t
		}
	}
}

// Queries fills the gather-mode query shapes with constants drawn for
// one seed. ORDER BY … LIMIT projects only its IRI sort key, so the
// rows a limit keeps do not depend on how ties fall.
func Queries(rng *rand.Rand) []string {
	pred := func() string { return fmt.Sprintf("ex:p%d", rng.Intn(3)) }
	return []string{
		fmt.Sprintf(`SELECT ?x ?y ?o WHERE { ?x ex:knows ?y . ?y %s ?o }`, pred()),
		fmt.Sprintf(`SELECT ?s ?a ?b WHERE { ?s %s ?a OPTIONAL { ?s %s ?b } }`, pred(), pred()),
		fmt.Sprintf(`SELECT ?s ?o WHERE { { ?s %s ?o } UNION { ?s %s %s } }`, pred(), pred(), constant(rng)),
		fmt.Sprintf(`SELECT ?x ?o WHERE { ?x ex:knows ?y . ?y %s ?o FILTER(?o != %s) }`, pred(), constant(rng)),
		fmt.Sprintf(`SELECT ?s WHERE { ?s %s ?o FILTER(isIRI(?s)) } ORDER BY %s(?s) LIMIT %d`,
			pred(), []string{"ASC", "DESC"}[rng.Intn(2)], 1+rng.Intn(4)),
		fmt.Sprintf(`SELECT ?z WHERE { ex:s%d ex:knows+ ?z }`, rng.Intn(6)),
		fmt.Sprintf(`SELECT ?s ?a WHERE { ?s %s ?a FILTER %sEXISTS { ?s %s ?b } }`, pred(), []string{"", "NOT "}[rng.Intn(2)], pred()),
		fmt.Sprintf(`SELECT (AVG(?o) AS ?m) (COUNT(?o) AS ?n) WHERE { ?s %s ?o FILTER(isNumeric(?o)) }`, pred()),
	}
}

// Filter draws a FILTER expression over vars, as SPARQL text, of
// nesting depth at most depth: comparisons, arithmetic, &&, || and !,
// BOUND, isNumeric, STR, COALESCE and IF, over the variables and over
// constants of Term's kinds plus booleans and decimals. Its operands
// raise expression errors freely (an unbound variable, a mixed-kind
// comparison), since that is what the oracles exercise.
func Filter(rng *rand.Rand, vars []string, depth int) string {
	if depth <= 0 {
		return operand(rng, vars)
	}
	sub := func() string { return Filter(rng, vars, depth-1) }
	switch rng.Intn(11) {
	case 0, 1:
		op := []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
		return fmt.Sprintf("(%s %s %s)", sub(), op, sub())
	case 2:
		return fmt.Sprintf("(%s %s %s)", sub(), []string{"+", "-", "*", "/"}[rng.Intn(4)], sub())
	case 3:
		return fmt.Sprintf("(%s && %s)", sub(), sub())
	case 4:
		return fmt.Sprintf("(%s || %s)", sub(), sub())
	case 5:
		return "!(" + sub() + ")"
	case 6:
		return fmt.Sprintf("BOUND(%s)", vars[rng.Intn(len(vars))])
	case 7:
		return fmt.Sprintf("isNumeric(%s)", sub())
	case 8:
		return fmt.Sprintf("STR(%s)", sub())
	case 9:
		return fmt.Sprintf("COALESCE(%s, %s)", sub(), sub())
	default:
		return fmt.Sprintf("IF(%s, %s, %s)", sub(), sub(), sub())
	}
}

func operand(rng *rand.Rand, vars []string) string {
	switch rng.Intn(4) {
	case 0, 1:
		return vars[rng.Intn(len(vars))]
	case 2:
		return []string{"true", "false", "2.5", "-1.0", "0"}[rng.Intn(5)]
	}
	return constant(rng)
}

// Rows renders each row as one string, in order: a cell is its term's
// key, "∅" when unbound, and "_:blank" for every blank node, since two
// stores mint different labels for the same statement's blank nodes
// (so only rows without blank cells, like a join through them, can
// tell whether two stores hold the same graph).
func Rows(rows [][]rdf.Term) []string {
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		var sb strings.Builder
		for _, tm := range row {
			switch {
			case tm == nil:
				sb.WriteString("∅")
			case tm.Kind() == rdf.KindBlank:
				sb.WriteString("_:blank")
			default:
				sb.WriteString(tm.Key())
			}
			sb.WriteByte('|')
		}
		out = append(out, sb.String())
	}
	return out
}

// Canon renders rows as a sorted multiset (Rows, sorted), so two
// answers compare as bags.
func Canon(rows [][]rdf.Term) []string {
	out := Rows(rows)
	sort.Strings(out)
	return out
}

// NaNData holds four doubles whose ORDER BY order is −INF, 0.0, 7.0,
// NaN: NaN sorts after +INF and fails every relational comparison.
const NaNData = `INSERT DATA { ex:a ex:p 7.0 . ex:b ex:p "NaN"^^xsd:double . ex:c ex:p "-INF"^^xsd:double . ex:d ex:p 0.0 }`

// NaNCases are queries over NaNData with the subjects each must return,
// in order.
var NaNCases = []struct {
	Query string
	Want  []string
}{
	{`SELECT ?s ?o WHERE { ?s ex:p ?o } ORDER BY ?o`, []string{"c", "d", "a", "b"}},
	{`SELECT ?s ?o WHERE { ?s ex:p ?o } ORDER BY DESC(?o)`, []string{"b", "a", "d", "c"}},
	{`SELECT ?s ?o WHERE { ?s ex:p ?o } ORDER BY ?o LIMIT 2`, []string{"c", "d"}},
	{`SELECT ?s ?o WHERE { ?s ex:p ?o } ORDER BY DESC(?o) LIMIT 2`, []string{"b", "a"}},
	{`SELECT ?s WHERE { ?s ex:p ?o FILTER(?o <= 5) } ORDER BY ?s`, []string{"c", "d"}},
	{`SELECT ?s WHERE { ?s ex:p ?o FILTER(?o >= 5) } ORDER BY ?s`, []string{"a"}},
	{`SELECT ?s WHERE { ?s ex:p ?o FILTER(!(?o < 5)) } ORDER BY ?s`, []string{"a", "b"}},
}

// Subjects lists a result's first column, in order, each ex: IRI as
// its local name and any other cell as its key.
func Subjects(rows [][]rdf.Term) []string {
	out := Rows(rows)
	for i, row := range rows {
		if iri, ok := row[0].(rdf.IRI); ok {
			out[i] = strings.TrimPrefix(string(iri), "http://ex/")
		}
	}
	return out
}
