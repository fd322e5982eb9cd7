package turtle

import (
	"strings"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

func TestWriteNTriplesBasic(t *testing.T) {
	g := parse(t, `@prefix ex: <http://ex/> .
ex:s ex:p 42 ; ex:q "hi"@en ; ex:r 2.5 ; ex:b true .`)
	var sb strings.Builder
	if err := WriteNTriples(&sb, g); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`<http://ex/s> <http://ex/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`"hi"@en`,
		`"2.5"^^<http://www.w3.org/2001/XMLSchema#double>`,
		`"true"^^<http://www.w3.org/2001/XMLSchema#boolean>`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// One line per triple.
	if n := strings.Count(strings.TrimSpace(out), "\n") + 1; n != 4 {
		t.Fatalf("%d lines:\n%s", n, out)
	}
}

func TestWriteNTriplesExpandsArrays(t *testing.T) {
	g := rdf.NewGraph()
	a, _ := array.FromInts([]int64{1, 2, 3, 4}, 2, 2)
	g.Add(rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.NewArray(a))
	var sb strings.Builder
	if err := WriteNTriples(&sb, g); err != nil {
		t.Fatal(err)
	}
	// The 2x2 matrix becomes the 13-triple list encoding.
	if n := strings.Count(sb.String(), " .\n"); n != 13 {
		t.Fatalf("%d triples:\n%s", n, sb.String())
	}
	// And the output reparses as Turtle (N-Triples is a subset).
	g2 := rdf.NewGraph()
	if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if g2.Size() != 13 {
		t.Fatalf("reparsed %d triples", g2.Size())
	}
}

func TestWriteNTriplesRoundTrip(t *testing.T) {
	g := parse(t, foafDoc)
	var sb strings.Builder
	if err := WriteNTriples(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2 := rdf.NewGraph()
	if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
		t.Fatal(err)
	}
	if g2.Size() != g.Size() {
		t.Fatalf("%d vs %d triples", g2.Size(), g.Size())
	}
}

func TestWriteNTriplesDeterministic(t *testing.T) {
	g := parse(t, `@prefix ex: <http://ex/> . ex:b ex:p 2 . ex:a ex:p 1 .`)
	var s1, s2 strings.Builder
	WriteNTriples(&s1, g)
	WriteNTriples(&s2, g)
	if s1.String() != s2.String() {
		t.Fatal("output not deterministic")
	}
	if !strings.HasPrefix(s1.String(), "<http://ex/a>") {
		t.Fatalf("not sorted:\n%s", s1.String())
	}
}
