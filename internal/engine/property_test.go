package engine

import (
	"fmt"
	"testing"
	"testing/quick"

	"scisparql/internal/rdf"
)

// Engine-level algebraic property tests: laws of the SPARQL algebra
// checked against randomly generated tiny graphs.

// randomGraphEngine builds an engine over a small random graph encoded
// by raw bytes.
func randomGraphEngine(raw []uint8) *Engine {
	ds := rdf.NewDataset()
	g := ds.Default
	for i := 0; i+2 < len(raw); i += 3 {
		s := rdf.IRI(fmt.Sprintf("http://ex/s%d", raw[i]%6))
		p := rdf.IRI(fmt.Sprintf("http://ex/p%d", raw[i+1]%3))
		o := rdf.Integer(int64(raw[i+2] % 8))
		addTriple(g, s, p, o)
	}
	return New(ds)
}

func rowMultiset(res *Results) map[string]int {
	out := map[string]int{}
	for _, row := range res.Rows {
		key := ""
		for _, c := range row {
			if c == nil {
				key += "\x00U;"
			} else {
				key += c.Key() + ";"
			}
		}
		out[key]++
	}
	return out
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Property: UNION is commutative (as a multiset of solutions).
func TestUnionCommutativityProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		e := randomGraphEngine(raw)
		q1 := `PREFIX ex: <http://ex/>
SELECT ?s ?v WHERE { { ?s ex:p0 ?v } UNION { ?s ex:p1 ?v } }`
		q2 := `PREFIX ex: <http://ex/>
SELECT ?s ?v WHERE { { ?s ex:p1 ?v } UNION { ?s ex:p0 ?v } }`
		r1, err1 := e.QueryString(q1)
		r2, err2 := e.QueryString(q2)
		if err1 != nil || err2 != nil {
			return false
		}
		return sameMultiset(rowMultiset(r1), rowMultiset(r2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: conjunctive FILTERs equal one FILTER with &&.
func TestFilterConjunctionProperty(t *testing.T) {
	f := func(raw []uint8, lo8, hi8 uint8) bool {
		e := randomGraphEngine(raw)
		lo := int64(lo8 % 8)
		hi := int64(hi8 % 8)
		q1 := fmt.Sprintf(`PREFIX ex: <http://ex/>
SELECT ?s ?v WHERE { ?s ex:p0 ?v FILTER (?v >= %d) FILTER (?v <= %d) }`, lo, hi)
		q2 := fmt.Sprintf(`PREFIX ex: <http://ex/>
SELECT ?s ?v WHERE { ?s ex:p0 ?v FILTER (?v >= %d && ?v <= %d) }`, lo, hi)
		r1, err1 := e.QueryString(q1)
		r2, err2 := e.QueryString(q2)
		if err1 != nil || err2 != nil {
			return false
		}
		return sameMultiset(rowMultiset(r1), rowMultiset(r2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: join ordering never changes the solution multiset.
func TestJoinOrderInvarianceProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		e := randomGraphEngine(raw)
		q := `PREFIX ex: <http://ex/>
SELECT ?s ?a ?b WHERE { ?s ex:p0 ?a . ?s ex:p1 ?b . ?s ex:p2 ?c }`
		e.DisableJoinOrder = false
		r1, err1 := e.QueryString(q)
		e.DisableJoinOrder = true
		r2, err2 := e.QueryString(q)
		if err1 != nil || err2 != nil {
			return false
		}
		return sameMultiset(rowMultiset(r1), rowMultiset(r2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: DISTINCT is idempotent and never increases cardinality.
func TestDistinctProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		e := randomGraphEngine(raw)
		plain, err1 := e.QueryString(`SELECT ?v WHERE { ?s ?p ?v }`)
		dist, err2 := e.QueryString(`SELECT DISTINCT ?v WHERE { ?s ?p ?v }`)
		if err1 != nil || err2 != nil {
			return false
		}
		if dist.Len() > plain.Len() {
			return false
		}
		seen := map[string]bool{}
		for _, row := range dist.Rows {
			k := row[0].Key()
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		// Every plain value appears in the distinct set.
		for _, row := range plain.Rows {
			if !seen[row[0].Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: COUNT(*) equals the number of ungrouped solutions.
func TestCountMatchesRowsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		e := randomGraphEngine(raw)
		rows, err1 := e.QueryString(`SELECT ?s ?p ?v WHERE { ?s ?p ?v }`)
		cnt, err2 := e.QueryString(`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?v }`)
		if err1 != nil || err2 != nil {
			return false
		}
		return cnt.Get(0, "n") == rdf.Integer(int64(rows.Len()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: OPTIONAL never loses left-side solutions.
func TestOptionalPreservesLeftProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		e := randomGraphEngine(raw)
		left, err1 := e.QueryString(`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p0 ?v }`)
		opt, err2 := e.QueryString(`PREFIX ex: <http://ex/>
SELECT ?s WHERE { ?s ex:p0 ?v OPTIONAL { ?s ex:p1 ?w } }`)
		if err1 != nil || err2 != nil {
			return false
		}
		return opt.Len() >= left.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
