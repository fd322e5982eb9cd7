package rdf

import (
	"testing"
	"testing/quick"
	"time"

	"scisparql/internal/array"
)

func TestTermKeysDistinct(t *testing.T) {
	terms := []Term{
		IRI("http://a"),
		Blank("a"),
		String{Val: "a"},
		String{Val: "a", Lang: "en"},
		Integer(1),
		Float(1),
		Boolean(true),
		DateTime{T: time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)},
		Typed{Lexical: "1", Datatype: IRI("http://dt")},
	}
	seen := map[string]Term{}
	for _, tm := range terms {
		if prev, ok := seen[tm.Key()]; ok {
			t.Fatalf("key collision between %v and %v", prev, tm)
		}
		seen[tm.Key()] = tm
	}
}

func TestTermKinds(t *testing.T) {
	cases := []struct {
		t Term
		k Kind
	}{
		{IRI("x"), KindIRI},
		{Blank("x"), KindBlank},
		{String{Val: "x"}, KindString},
		{Integer(1), KindInt},
		{Float(1), KindFloat},
		{Boolean(true), KindBool},
		{DateTime{}, KindDateTime},
		{Typed{}, KindTyped},
		{Array{A: array.NewInt(1)}, KindArray},
	}
	for _, c := range cases {
		if c.t.Kind() != c.k {
			t.Fatalf("%v: kind %v, want %v", c.t, c.t.Kind(), c.k)
		}
	}
}

func TestFloatRendering(t *testing.T) {
	if got := Float(2).String(); got != "2.0" {
		t.Fatalf("Float(2) = %q", got)
	}
	if got := Float(2.5).String(); got != "2.5" {
		t.Fatalf("Float(2.5) = %q", got)
	}
}

func TestNumericConversions(t *testing.T) {
	if n, ok := Numeric(Integer(5)); !ok || n.I != 5 {
		t.Fatalf("got %v %v", n, ok)
	}
	if n, ok := Numeric(Float(2.5)); !ok || n.F != 2.5 {
		t.Fatalf("got %v %v", n, ok)
	}
	if n, ok := Numeric(Boolean(true)); !ok || n.I != 1 {
		t.Fatalf("got %v %v", n, ok)
	}
	if _, ok := Numeric(IRI("x")); ok {
		t.Fatal("IRI should not be numeric")
	}
	if got := FromNumber(array.IntN(3)); got != Integer(3) {
		t.Fatalf("got %v", got)
	}
	if got := FromNumber(array.FloatN(3.5)); got != Float(3.5) {
		t.Fatalf("got %v", got)
	}
}

func TestGraphAddAndMatch(t *testing.T) {
	g := NewGraph()
	s := IRI("http://ex/s")
	p := IRI("http://ex/p")
	if !g.Add(s, p, Integer(1)) {
		t.Fatal("first add should succeed")
	}
	if g.Add(s, p, Integer(1)) {
		t.Fatal("duplicate add should report false")
	}
	g.Add(s, p, Integer(2))
	if g.Size() != 2 {
		t.Fatalf("size %d", g.Size())
	}
	var got []Term
	g.MatchTerms(s, p, nil, func(_, _, o Term) bool {
		got = append(got, o)
		return true
	})
	if len(got) != 2 {
		t.Fatalf("matched %d", len(got))
	}
}

func TestGraphMatchAllPatterns(t *testing.T) {
	g := NewGraph()
	s1, s2 := IRI("s1"), IRI("s2")
	p1, p2 := IRI("p1"), IRI("p2")
	o1, o2 := Integer(1), Integer(2)
	g.Add(s1, p1, o1)
	g.Add(s1, p2, o2)
	g.Add(s2, p1, o2)

	count := func(s, p, o Term) int {
		n := 0
		g.MatchTerms(s, p, o, func(_, _, _ Term) bool {
			n++
			return true
		})
		return n
	}
	cases := []struct {
		s, p, o Term
		want    int
	}{
		{s1, p1, o1, 1},
		{s1, p1, nil, 1},
		{nil, p1, o2, 1},
		{s1, nil, o2, 1},
		{s1, nil, nil, 2},
		{nil, p1, nil, 2},
		{nil, nil, o2, 2},
		{nil, nil, nil, 3},
		{IRI("missing"), nil, nil, 0},
	}
	for i, c := range cases {
		if got := count(c.s, c.p, c.o); got != c.want {
			t.Fatalf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}

func TestGraphMatchEarlyStop(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.Add(IRI("s"), IRI("p"), Integer(int64(i)))
	}
	n := 0
	g.MatchTerms(IRI("s"), IRI("p"), nil, func(_, _, _ Term) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("yielded %d, want 3", n)
	}
}

func TestGraphDelete(t *testing.T) {
	g := NewGraph()
	s, p, o := IRI("s"), IRI("p"), Integer(1)
	g.Add(s, p, o)
	if !g.Has(s, p, o) {
		t.Fatal("triple should exist")
	}
	if !g.Delete(s, p, o) {
		t.Fatal("delete should succeed")
	}
	if g.Has(s, p, o) || g.Size() != 0 {
		t.Fatal("triple should be gone")
	}
	if g.Delete(s, p, o) {
		t.Fatal("second delete should fail")
	}
	if g.Delete(IRI("nope"), p, o) {
		t.Fatal("unknown subject delete should fail")
	}
}

func TestCountMatch(t *testing.T) {
	g := NewGraph()
	s := g.Intern(IRI("s"))
	p := g.Intern(IRI("p"))
	q := g.Intern(IRI("q"))
	for i := 0; i < 5; i++ {
		g.addIDs(s, p, g.Intern(Integer(int64(i))))
	}
	g.addIDs(s, q, g.Intern(Integer(0)))
	if got := g.CountMatch(s, p, 0); got != 5 {
		t.Fatalf("got %d", got)
	}
	if got := g.CountMatch(s, 0, 0); got != 6 {
		t.Fatalf("got %d", got)
	}
	if got := g.CountMatch(0, 0, 0); got != 6 {
		t.Fatalf("got %d", got)
	}
	o0, _ := g.Lookup(Integer(0))
	if got := g.CountMatch(0, 0, o0); got != 2 {
		t.Fatalf("got %d", got)
	}
	if got := g.CountMatch(0, q, o0); got != 1 {
		t.Fatalf("got %d", got)
	}
	if got := g.CountMatch(s, 0, o0); got != 2 {
		t.Fatalf("got %d", got)
	}
	if got := g.CountMatch(s, p, o0); got != 1 {
		t.Fatalf("got %d", got)
	}
}

func TestPredStats(t *testing.T) {
	g := NewGraph()
	p := g.Intern(IRI("p"))
	s1 := g.Intern(IRI("s1"))
	s2 := g.Intern(IRI("s2"))
	g.addIDs(s1, p, g.Intern(Integer(1)))
	g.addIDs(s1, p, g.Intern(Integer(2)))
	g.addIDs(s2, p, g.Intern(Integer(2)))
	count, ds, do := g.PredStats(p)
	if count != 3 || ds != 2 || do != 2 {
		t.Fatalf("got %d %d %d", count, ds, do)
	}
}

func TestInternIsStable(t *testing.T) {
	g := NewGraph()
	a := g.Intern(IRI("x"))
	b := g.Intern(IRI("x"))
	if a != b {
		t.Fatal("same term should intern to same ID")
	}
	if g.TermOf(a) != IRI("x") {
		t.Fatal("TermOf should invert Intern")
	}
}

func TestTermOfPanicsOnInvalid(t *testing.T) {
	g := NewGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.TermOf(99)
}

func TestNewBlankUnique(t *testing.T) {
	g := NewGraph()
	a, b := g.NewBlank(), g.NewBlank()
	if a == b {
		t.Fatal("blank nodes must be unique")
	}
}

func TestDataset(t *testing.T) {
	d := NewDataset()
	if d.Named(IRI("g1"), false) != nil {
		t.Fatal("absent named graph should be nil")
	}
	g1 := d.Named(IRI("g1"), true)
	if g1 == nil || d.Named(IRI("g1"), false) != g1 {
		t.Fatal("named graph should persist")
	}
	if len(d.GraphNames()) != 1 {
		t.Fatal("expected one named graph")
	}
	d.DropNamed(IRI("g1"))
	if d.Named(IRI("g1"), false) != nil {
		t.Fatal("dropped graph should be gone")
	}
}

// Property: adding a set of distinct triples yields Size equal to the
// number of distinct triples, and all are found by Has.
func TestGraphSetSemanticsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		g := NewGraph()
		type key struct{ s, p, o uint8 }
		distinct := map[key]bool{}
		for i := 0; i+2 < len(raw); i += 3 {
			k := key{raw[i] % 8, raw[i+1] % 4, raw[i+2] % 8}
			distinct[k] = true
			g.Add(Integer(int64(k.s)), IRI(string(rune('a'+k.p))), Integer(int64(k.o)))
		}
		if g.Size() != len(distinct) {
			return false
		}
		for k := range distinct {
			if !g.Has(Integer(int64(k.s)), IRI(string(rune('a'+k.p))), Integer(int64(k.o))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
