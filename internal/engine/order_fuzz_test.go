package engine

import (
	"math"
	"testing"
	"time"

	"scisparql/internal/rdf"
)

// fuzzTerm builds one term of the kind k selects from a number and a
// string: integers, doubles (NaN, ±INF and −0 included), booleans,
// decimals, dateTimes with and without an offset, plain, lang and typed
// strings, IRIs and blanks — every kind difftest generates, and more.
func fuzzTerm(k uint8, x float64, s string) rdf.Term {
	switch k % 12 {
	case 0:
		return rdf.Integer(int64(x))
	case 1:
		return rdf.Float(x)
	case 2:
		return rdf.Boolean(x > 0)
	case 3:
		return rdf.Float(math.Round(x*100) / 100) // a decimal
	case 4:
		return rdf.DateTime{T: time.Unix(int64(x), 0).UTC()}
	case 5:
		return rdf.DateTime{T: time.Unix(int64(x), 0).In(time.FixedZone("", (len(s)%24-12)*3600))}
	case 6:
		return rdf.String{Val: s}
	case 7:
		return rdf.String{Val: s, Lang: "en"}
	case 8:
		return rdf.Typed{Lexical: s, Datatype: rdf.IRI("http://ex/dt")}
	case 9:
		return rdf.IRI("http://ex/" + s)
	case 10:
		return rdf.Blank("b" + s)
	}
	return rdf.Integer(int64(len(s)))
}

// FuzzOrderCompare: Compare(·, ·, false), the order ORDER BY sorts by,
// is a total preorder on every three terms: each term ties with itself,
// swapping the arguments flips the sign, and ≤ is transitive. A sort
// over a comparator that breaks this returns an order that depends on
// the algorithm, so routes that sort differently disagree. Its seed
// corpus (testdata) runs in tier-1; a NaN that tied with every number
// fails it on (7.0, NaN, −INF).
func FuzzOrderCompare(f *testing.F) {
	f.Fuzz(func(t *testing.T, ka uint8, xa float64, sa string, kb uint8, xb float64, sb string, kc uint8, xc float64, sc string) {
		terms := []rdf.Term{fuzzTerm(ka, xa, sa), fuzzTerm(kb, xb, sb), fuzzTerm(kc, xc, sc)}
		cmp := func(a, b rdf.Term) int {
			c, err := Compare(a, b, false)
			if err != nil {
				t.Fatalf("Compare(%v, %v): %v", a, b, err)
			}
			return c
		}
		for _, a := range terms {
			if c := cmp(a, a); c != 0 {
				t.Fatalf("Compare(%v, itself) = %d", a, c)
			}
			for _, b := range terms {
				if ab, ba := cmp(a, b), cmp(b, a); (ab < 0) != (ba > 0) || (ab == 0) != (ba == 0) {
					t.Fatalf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, ab, b, a, ba)
				}
				for _, c := range terms {
					if cmp(a, b) <= 0 && cmp(b, c) <= 0 && cmp(a, c) > 0 {
						t.Fatalf("%v ≤ %v ≤ %v but Compare(%v, %v) = %d", a, b, c, a, c, cmp(a, c))
					}
				}
			}
		}
	})
}
