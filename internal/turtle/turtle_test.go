package turtle

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/difftest"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

func parse(t *testing.T, src string) *rdf.Graph {
	t.Helper()
	g := rdf.NewGraph()
	if err := sparql.ParseTurtle(src, g); err != nil {
		t.Fatalf("parse error: %v\nsource:\n%s", err, src)
	}
	return g
}

const foafDoc = `
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .

_:a a foaf:Person ;
    foaf:name "Alice" ;
    foaf:knows _:b , _:d .
_:b foaf:knows _:a ; foaf:name "Bob" .
_:d foaf:name "Daniel" .
`

func TestParseFOAF(t *testing.T) {
	g := parse(t, foafDoc)
	if g.Size() != 7 {
		t.Fatalf("size %d, want 7", g.Size())
	}
	name := rdf.IRI("http://xmlns.com/foaf/0.1/name")
	n := 0
	g.MatchTerms(nil, name, nil, func(_, _, _ rdf.Term) bool {
		n++
		return true
	})
	if n != 3 {
		t.Fatalf("found %d names", n)
	}
}

func TestParseTypeKeyword(t *testing.T) {
	g := parse(t, `@prefix ex: <http://ex/> . ex:s a ex:Class .`)
	if !g.Has(rdf.IRI("http://ex/s"), rdf.RDFType, rdf.IRI("http://ex/Class")) {
		t.Fatal("missing rdf:type triple")
	}
}

func TestParseLiterals(t *testing.T) {
	g := parse(t, `@prefix ex: <http://ex/> .
ex:s ex:int 42 ;
     ex:neg -7 ;
     ex:dec 3.25 ;
     ex:dbl 1.5e3 ;
     ex:str "hello\nworld" ;
     ex:lang "hej"@sv ;
     ex:bool true ;
     ex:boolF false ;
     ex:typed "42"^^<http://www.w3.org/2001/XMLSchema#integer> ;
     ex:dt "2012-04-01T10:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> ;
     ex:other "x"^^<http://ex/custom> .
`)
	s := rdf.IRI("http://ex/s")
	check := func(p string, want rdf.Term) {
		t.Helper()
		if !g.Has(s, rdf.IRI("http://ex/"+p), want) {
			t.Fatalf("missing %s -> %v", p, want)
		}
	}
	check("int", rdf.Integer(42))
	check("neg", rdf.Integer(-7))
	check("dec", rdf.Float(3.25))
	check("dbl", rdf.Float(1500))
	check("str", rdf.String{Val: "hello\nworld"})
	check("lang", rdf.String{Val: "hej", Lang: "sv"})
	check("bool", rdf.Boolean(true))
	check("boolF", rdf.Boolean(false))
	check("typed", rdf.Integer(42))
	check("dt", rdf.DateTime{T: time.Date(2012, 4, 1, 10, 0, 0, 0, time.UTC)})
	check("other", rdf.Typed{Lexical: "x", Datatype: rdf.IRI("http://ex/custom")})
}

func TestParseCollection(t *testing.T) {
	g := parse(t, `@prefix ex: <http://ex/> . ex:s ex:p ((1 2) (3 4)) .`)
	// 1 root triple + 2 outer list cells (2 triples each) + 4 inner
	// cells x 2 triples each... outer list: 2 cells -> 4 triples; inner
	// lists: 2 lists x 2 cells x 2 = 8; root = 1. Total 13 (cf. §2.3.5.1).
	if g.Size() != 13 {
		t.Fatalf("size %d, want 13", g.Size())
	}
}

func TestParseEmptyCollection(t *testing.T) {
	g := parse(t, `@prefix ex: <http://ex/> . ex:s ex:p () .`)
	if !g.Has(rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.RDFNil) {
		t.Fatal("empty collection should be rdf:nil")
	}
}

func TestParseBlankPropertyList(t *testing.T) {
	g := parse(t, `@prefix foaf: <http://xmlns.com/foaf/0.1/> .
[] foaf:name "Alice" ; foaf:knows [ foaf:name "Bob" ] .`)
	if g.Size() != 3 {
		t.Fatalf("size %d, want 3", g.Size())
	}
}

func TestParseComments(t *testing.T) {
	g := parse(t, `# leading comment
@prefix ex: <http://ex/> . # trailing
ex:s ex:p 1 . # done`)
	if g.Size() != 1 {
		t.Fatalf("size %d", g.Size())
	}
}

func TestParseSparqlStylePrefix(t *testing.T) {
	g := parse(t, `PREFIX ex: <http://ex/>
ex:s ex:p 1 .`)
	if g.Size() != 1 {
		t.Fatalf("size %d", g.Size())
	}
}

func TestParseBase(t *testing.T) {
	g := parse(t, `@base <http://ex/> . <s> <p> 1 .`)
	if !g.Has(rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.Integer(1)) {
		t.Fatal("base resolution failed")
	}
}

func TestParseLongString(t *testing.T) {
	g := parse(t, `@prefix ex: <http://ex/> . ex:s ex:p """multi
line "quoted" text""" .`)
	found := false
	g.MatchTerms(nil, rdf.IRI("http://ex/p"), nil, func(_, _, o rdf.Term) bool {
		if s, ok := o.(rdf.String); ok && strings.Contains(s.Val, "\"quoted\"") {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("long string not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`ex:s ex:p 1 .`,                        // undefined prefix
		`@prefix ex: <http://ex/> . ex:s .`,    // missing predicate/object
		`@prefix ex: <http://ex/> . ex:s ex:p`, // missing dot
		`<http://ex/s> <http://ex/p> "unterminated`,
		`<http://ex/s> <http://ex/p> 1e .`,
		`@prefix ex: <http://ex/> . ex:s ex:p (1 2 .`,
		`<s <p> 1 .`,
		`@prefix ex: <http://ex/> . ex:s ex:p "x"^^5 .`,
		`@prefix ex: <http://ex/> . ex:s ex:p "x"^^ex:y extra .`,
		`<http://ex/a> <http://ex/p> 1 . <http://ex/b> <http://ex/p> .`, // a good statement before the bad one
	}
	for i, src := range bad {
		g := rdf.NewGraph()
		if err := sparql.ParseTurtle(src, g); err == nil {
			t.Fatalf("case %d: expected error for %q", i, src)
		}
		if g.Size() != 0 {
			t.Fatalf("case %d: a document that failed to parse left %d triples behind", i, g.Size())
		}
	}
}

func TestWriterRoundTrip(t *testing.T) {
	g := parse(t, foafDoc)
	var sb strings.Builder
	err := Write(&sb, g, map[string]string{"foaf": "http://xmlns.com/foaf/0.1/"})
	if err != nil {
		t.Fatal(err)
	}
	g2 := rdf.NewGraph()
	if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
		t.Fatalf("reparse error: %v\noutput:\n%s", err, sb.String())
	}
	if g2.Size() != g.Size() {
		t.Fatalf("round trip size %d, want %d\noutput:\n%s", g2.Size(), g.Size(), sb.String())
	}
}

// TestWriterNonFiniteDoubles: NaN and the infinities have no Turtle
// number syntax; written as typed literals they read back as themselves.
func TestWriterNonFiniteDoubles(t *testing.T) {
	g := rdf.NewGraph()
	for i, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1.5} {
		addTriple(g, rdf.IRI(fmt.Sprintf("http://ex/s%d", i)), rdf.IRI("http://ex/p"), rdf.Float(f))
	}
	var sb strings.Builder
	if err := Write(&sb, g, nil); err != nil {
		t.Fatal(err)
	}
	g2 := rdf.NewGraph()
	if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
		t.Fatalf("reparse error: %v\noutput:\n%s", err, sb.String())
	}
	var want, got []string
	g.Triples(func(s, p, o rdf.Term) bool { want = append(want, s.Key()+" "+o.Key()); return true })
	g2.Triples(func(s, p, o rdf.Term) bool { got = append(got, s.Key()+" "+o.Key()); return true })
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("read back %q, want %q\noutput:\n%s", got, want, sb.String())
	}
}

// TestWriterKeepsFractionalSeconds: a dateTime written out and read back
// is the same term, nanoseconds and all; a
// whole-second one is written as before.
func TestWriterKeepsFractionalSeconds(t *testing.T) {
	s, p := rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p")
	for _, tm := range []time.Time{
		time.Date(2020, 1, 2, 3, 4, 5, 123456789, time.UTC),
		time.Date(2020, 1, 2, 3, 4, 5, 500000000, time.FixedZone("", -5*3600)),
		time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC),
	} {
		o := rdf.DateTime{T: tm}
		g := rdf.NewGraph()
		addTriple(g, s, p, o)
		for name, write := range map[string]func(*strings.Builder) error{
			"turtle": func(sb *strings.Builder) error { return Write(sb, g, nil) },
		} {
			var sb strings.Builder
			if err := write(&sb); err != nil {
				t.Fatal(err)
			}
			g2 := rdf.NewGraph()
			if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
				t.Fatalf("%s: reparse error: %v\noutput:\n%s", name, err, sb.String())
			}
			if !g2.Has(s, p, o) {
				t.Errorf("%s: %s does not read back as itself\noutput:\n%s", name, o.Key(), sb.String())
			}
		}
	}
	whole := rdf.DateTime{T: time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)}
	if got, want := whole.String(), `"2020-01-02T03:04:05Z"^^<http://www.w3.org/2001/XMLSchema#dateTime>`; got != want {
		t.Errorf("whole-second dateTime renders %s, want %s", got, want)
	}
}

func TestWriterRendersArraysAsCollections(t *testing.T) {
	g := rdf.NewGraph()
	a, _ := array.FromInts([]int64{1, 2, 3, 4}, 2, 2)
	addTriple(g, rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.NewArray(a))
	var sb strings.Builder
	if err := Write(&sb, g, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "((1 2) (3 4))") {
		t.Fatalf("output:\n%s", sb.String())
	}
	// The output must reparse as the 13-triple list encoding.
	g2 := rdf.NewGraph()
	if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
		t.Fatal(err)
	}
	if g2.Size() != 13 {
		t.Fatalf("reparsed size %d, want 13", g2.Size())
	}
}

func TestWriterAbbreviatesPrefixes(t *testing.T) {
	g := parse(t, `@prefix ex: <http://ex/> . ex:s ex:p ex:o .`)
	var sb strings.Builder
	if err := Write(&sb, g, map[string]string{"ex": "http://ex/"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ex:s ex:p ex:o .") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

// Property: any graph of simple terms survives a write/parse round
// trip with identical size and membership.
func TestWriteParseRoundTripProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		g := rdf.NewGraph()
		for i := 0; i+2 < len(raw); i += 3 {
			s := rdf.IRI("http://ex/s" + string(rune('0'+raw[i]%5)))
			p := rdf.IRI("http://ex/p" + string(rune('0'+raw[i+1]%3)))
			var o rdf.Term
			switch raw[i+2] % 4 {
			case 0:
				o = rdf.Integer(int64(raw[i+2]))
			case 1:
				o = rdf.Float(float64(raw[i+2]) / 2)
			case 2:
				o = rdf.String{Val: "v" + string(rune('0'+raw[i+2]%8))}
			default:
				o = rdf.Boolean(raw[i+2]%2 == 0)
			}
			addTriple(g, s, p, o)
		}
		var sb strings.Builder
		if err := Write(&sb, g, map[string]string{"ex": "http://ex/"}); err != nil {
			return false
		}
		g2 := rdf.NewGraph()
		if err := sparql.ParseTurtle(sb.String(), g2); err != nil {
			return false
		}
		if g2.Size() != g.Size() {
			return false
		}
		ok := true
		g.Triples(func(s, p, o rdf.Term) bool {
			if !g2.Has(s, p, o) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWriteReadRoundTripGenerated: each generated dataset, written as
// Turtle with and without prefixes, reads back with
// the same ground triples and as many triples with blanks — so the
// writer never abbreviates a name the reader would split. Local names
// a prefixed name cannot carry whole ride along.
func TestWriteReadRoundTripGenerated(t *testing.T) {
	prefixes := map[string]string{"ex": "http://ex/", "xsd": "http://www.w3.org/2001/XMLSchema#"}
	for seed := int64(1); seed <= 50; seed++ {
		st, err := sparql.ParseStatement(difftest.Prefixes + difftest.Data(rand.New(rand.NewSource(seed))))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := rdf.NewGraph()
		for _, tp := range st.(*sparql.InsertData).Triples {
			addTriple(g, tp.S.Term, tp.Path.(sparql.PathIRI).IRI, tp.O.Term)
		}
		for _, local := range []string{"x.y", "end.", "1a", "-a", ""} {
			addTriple(g, rdf.IRI("http://ex/"+local), rdf.IRI("http://ex/p."+local), rdf.IRI("http://ex/s0"))
		}
		for name, write := range map[string]func(*strings.Builder) error{
			"turtle":          func(sb *strings.Builder) error { return Write(sb, g, nil) },
			"turtle+prefixes": func(sb *strings.Builder) error { return Write(sb, g, prefixes) },
		} {
			var sb strings.Builder
			if err := write(&sb); err != nil {
				t.Fatal(err)
			}
			back := rdf.NewGraph()
			if err := sparql.ParseTurtle(sb.String(), back); err != nil {
				t.Fatalf("seed %d, %s: %v\noutput:\n%s", seed, name, err, sb.String())
			}
			wantGround, wantBlank := splitByBlanks(g)
			gotGround, gotBlank := splitByBlanks(back)
			if strings.Join(gotGround, "\n") != strings.Join(wantGround, "\n") || gotBlank != wantBlank {
				t.Fatalf("seed %d, %s: read back %d ground + %d blank triples, want %d + %d\ngot  %q\nwant %q\noutput:\n%s",
					seed, name, len(gotGround), gotBlank, len(wantGround), wantBlank, gotGround, wantGround, sb.String())
			}
		}
	}
}

// splitByBlanks returns g's ground triples as sorted keys and the
// number of triples with a blank node.
func splitByBlanks(g *rdf.Graph) (ground []string, blank int) {
	g.Triples(func(s, p, o rdf.Term) bool {
		_, sb := s.(rdf.Blank)
		_, ob := o.(rdf.Blank)
		if sb || ob {
			blank++
		} else {
			ground = append(ground, s.Key()+" "+p.Key()+" "+o.Key())
		}
		return true
	})
	sort.Strings(ground)
	return ground, blank
}

// addTriple commits (s, p, o) to g as a one-triple transaction.
func addTriple(g *rdf.Graph, s, p, o rdf.Term) {
	tx := g.Begin()
	tx.Add(s, p, o)
	tx.Commit()
}
