package turtle

import (
	"strings"
	"testing"

	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// TestUCHAREscapes exercises \uXXXX/\UXXXXXXXX in string literals and
// IRIREFs: spec-valid input must decode to the designated code points.
func TestUCHAREscapes(t *testing.T) {
	g := rdf.NewGraph()
	src := `<http://ex/sa> <http://ex/p> "café \U0001F600" .`
	if err := sparql.ParseTurtle(src, g); err != nil {
		t.Fatalf("parse: %v", err)
	}
	found := false
	g.Triples(func(s, p, o rdf.Term) bool {
		if string(s.(rdf.IRI)) != "http://ex/sa" {
			t.Errorf("subject IRI escape not decoded: %v", s)
		}
		if o.(rdf.String).Val != "café \U0001F600" {
			t.Errorf("literal escapes not decoded: %q", o.(rdf.String).Val)
		}
		found = true
		return true
	})
	if !found {
		t.Fatal("no triple parsed")
	}
}

// TestBadUCHAREscapes: bad hex, truncation, surrogate halves and
// out-of-range values must be reported, not silently mangled.
func TestBadUCHAREscapes(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"bad hex", `<http://ex/s> <http://ex/p> "\u00GG" .`, "not a hex digit"},
		{"truncated", `<http://ex/s> <http://ex/p> "\u00`, "truncated"},
		{"surrogate", `<http://ex/s> <http://ex/p> "\uD800" .`, "surrogate"},
		{"out of range", `<http://ex/s> <http://ex/p> "\U00110000" .`, "beyond U+10FFFF"},
		{"iri bad escape", `<http://ex/s\n> <http://ex/p> "x" .`, "only \\u and \\U"},
		{"iri surrogate", `<http://ex/s\uDFFF> <http://ex/p> "x" .`, "surrogate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := sparql.ParseTurtle(c.src, rdf.NewGraph())
			if err == nil {
				t.Fatalf("parse accepted %q", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestControlCharRoundTrip: literals holding control characters must
// survive load → serialize → load unchanged. The old writer emitted
// Go-syntax \x escapes here, which no RDF parser (including ours)
// accepts.
func TestControlCharRoundTrip(t *testing.T) {
	g := rdf.NewGraph()
	nasty := "ctl:\x01\x02 bell:\x07 tab:\t nl:\n del:\x7F fin"
	addTriple(g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.String{Val: nasty})
	addTriple(g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/q"),
		rdf.Typed{Lexical: "v\x0B", Datatype: rdf.IRI("http://ex/dt")})

	t.Run("turtle", func(t *testing.T) {
		var sb strings.Builder
		if err := Write(&sb, g, nil); err != nil {
			t.Fatalf("write: %v", err)
		}
		back := rdf.NewGraph()
		if err := sparql.ParseTurtle(sb.String(), back); err != nil {
			t.Fatalf("reparse of our own output failed: %v\noutput:\n%s", err, sb.String())
		}
		var got, gotTyped string
		back.Triples(func(s, p, o rdf.Term) bool {
			switch v := o.(type) {
			case rdf.String:
				got = v.Val
			case rdf.Typed:
				gotTyped = v.Lexical
			}
			return true
		})
		if got != nasty {
			t.Errorf("string literal mangled: %q != %q", got, nasty)
		}
		if gotTyped != "v\x0B" {
			t.Errorf("typed literal mangled: %q", gotTyped)
		}
	})
}

// TestIRIEscapeRoundTrip: IRIs holding characters the IRIREF grammar
// excludes are written with UCHAR escapes and re-read losslessly.
func TestIRIEscapeRoundTrip(t *testing.T) {
	g := rdf.NewGraph()
	iri := rdf.IRI("http://ex/with space/and<angle>")
	addTriple(g, iri, rdf.IRI("http://ex/p"), rdf.Integer(1))
	var sb strings.Builder
	if err := Write(&sb, g, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	back := rdf.NewGraph()
	if err := sparql.ParseTurtle(sb.String(), back); err != nil {
		t.Fatalf("reparse: %v\noutput:\n%s", err, sb.String())
	}
	ok := false
	back.Triples(func(s, p, o rdf.Term) bool {
		ok = s.(rdf.IRI) == iri
		return true
	})
	if !ok {
		t.Fatalf("IRI did not round-trip; output:\n%s", sb.String())
	}
}
