package turtle

import (
	"strings"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

func TestWriterFloatArrayRendering(t *testing.T) {
	g := rdf.NewGraph()
	a, _ := array.FromFloats([]float64{1.5, 2, 3.25}, 3)
	addTriple(g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.NewArray(a))
	var sb strings.Builder
	if err := Write(&sb, g, nil); err != nil {
		t.Fatal(err)
	}
	// Whole floats must keep a decimal point so they reparse as floats.
	if !strings.Contains(sb.String(), "(1.5 2.0 3.25)") {
		t.Fatalf("output:\n%s", sb.String())
	}
	g2 := rdf.NewGraph()
	if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
		t.Fatal(err)
	}
}

func TestWriterDateTimeAndTypedRoundTrip(t *testing.T) {
	g := rdf.NewGraph()
	s := rdf.IRI("http://ex/s")
	addTriple(g, s, rdf.IRI("http://ex/when"), rdf.DateTime{T: time.Date(2026, 7, 4, 10, 0, 0, 0, time.UTC)})
	addTriple(g, s, rdf.IRI("http://ex/raw"), rdf.Typed{Lexical: "payload", Datatype: rdf.IRI("http://ex/custom")})
	var sb strings.Builder
	if err := Write(&sb, g, nil); err != nil {
		t.Fatal(err)
	}
	g2 := rdf.NewGraph()
	if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if g2.Size() != 2 {
		t.Fatalf("size %d:\n%s", g2.Size(), sb.String())
	}
	found := false
	g2.MatchTerms(s, rdf.IRI("http://ex/when"), nil, func(_, _, o rdf.Term) bool {
		if dt, ok := o.(rdf.DateTime); ok && dt.T.Hour() == 10 {
			found = true
		}
		return true
	})
	if !found {
		t.Fatalf("dateTime lost:\n%s", sb.String())
	}
}

func TestWriterUnsafeLocalNamesStayFullIRIs(t *testing.T) {
	g := rdf.NewGraph()
	// Local part contains '.', which our prefix abbreviation refuses.
	addTriple(g, rdf.IRI("http://ex/a.b"), rdf.IRI("http://ex/p"), rdf.Integer(1))
	var sb strings.Builder
	if err := Write(&sb, g, map[string]string{"ex": "http://ex/"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<http://ex/a.b>") {
		t.Fatalf("output:\n%s", sb.String())
	}
	g2 := rdf.NewGraph()
	if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
		t.Fatal(err)
	}
}

func TestWriterBlankNodeSubjects(t *testing.T) {
	g := rdf.NewGraph()
	b := g.NewBlank()
	addTriple(g, b, rdf.IRI("http://ex/p"), rdf.String{Val: "v"})
	var sb strings.Builder
	if err := Write(&sb, g, nil); err != nil {
		t.Fatal(err)
	}
	g2 := rdf.NewGraph()
	if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
		t.Fatal(err)
	}
	if g2.Size() != 1 {
		t.Fatalf("size %d", g2.Size())
	}
}

func TestWriterRDFTypeAbbreviatedAsA(t *testing.T) {
	g := rdf.NewGraph()
	addTriple(g, rdf.IRI("http://ex/s"), rdf.RDFType, rdf.IRI("http://ex/T"))
	var sb strings.Builder
	if err := Write(&sb, g, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), " a ") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestWriterEscapesStrings(t *testing.T) {
	g := rdf.NewGraph()
	addTriple(g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.String{Val: "line\n\"quoted\""})
	var sb strings.Builder
	if err := Write(&sb, g, nil); err != nil {
		t.Fatal(err)
	}
	g2 := rdf.NewGraph()
	if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	ok := false
	g2.MatchTerms(nil, rdf.IRI("http://ex/p"), nil, func(_, _, o rdf.Term) bool {
		if s, is := o.(rdf.String); is && s.Val == "line\n\"quoted\"" {
			ok = true
		}
		return true
	})
	if !ok {
		t.Fatal("escaped string lost")
	}
}
