package rdf_test

import (
	"math"
	"testing"
	"time"

	"scisparql/internal/engine"
	"scisparql/internal/rdf"
)

// TestGuardInternHitAllocFree: interning or looking up a term the
// dictionary already holds allocates nothing for every kind but Array
// (whose identity is still its Key() string), and neither do SameTerm
// and engine.Compare on a pair of IRIs. Each of these built a Key()
// string per call when the dictionary was keyed by it.
func TestGuardInternHitAllocFree(t *testing.T) {
	terms := []rdf.Term{
		rdf.IRI("http://bench/doc17"),
		rdf.Blank("g42"),
		rdf.String{Val: "Title 17"},
		rdf.String{Val: "titre", Lang: "fr"},
		rdf.Integer(1997),
		rdf.Float(math.NaN()),
		rdf.Boolean(true),
		rdf.DateTime{T: time.Date(2020, 1, 2, 3, 4, 5, 123456789, time.FixedZone("", 3600))},
		rdf.Typed{Lexical: "P1D", Datatype: "http://www.w3.org/2001/XMLSchema#duration"},
	}
	g := rdf.NewGraph()
	for _, tm := range terms {
		id := g.Intern(tm)
		if avg := testing.AllocsPerRun(100, func() {
			if g.Intern(tm) != id {
				t.Error("the hit changed the ID")
			}
			if got, ok := g.Lookup(tm); !ok || got != id {
				t.Error("Lookup missed an interned term")
			}
		}); avg != 0 {
			t.Errorf("Intern/Lookup hit on %v (%v) allocates %.1f per run, want 0", tm, tm.Kind(), avg)
		}
	}
	// Key order: "<…doc17>" sorts after "<…doc170>" ('>' > '0').
	a, b := rdf.Term(rdf.IRI("http://bench/doc17")), rdf.Term(rdf.IRI("http://bench/doc170"))
	if avg := testing.AllocsPerRun(100, func() {
		if rdf.SameTerm(a, b) {
			t.Error("distinct IRIs are the same term")
		}
		if c, err := engine.Compare(a, b, false); err != nil || c != 1 {
			t.Errorf("Compare = %d, %v; want 1", c, err)
		}
	}); avg != 0 {
		t.Errorf("SameTerm and Compare on IRIs allocate %.1f per run, want 0", avg)
	}
}
