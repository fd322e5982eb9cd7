package sparql

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"scisparql/internal/difftest"
	"scisparql/internal/rdf"
)

// rfc3986Normal is RFC 3986 §5.4.1's table of normal examples, each
// reference resolved against the base http://a/b/c/d;p?q.
var rfc3986Normal = [][2]string{
	{"g:h", "g:h"},
	{"g", "http://a/b/c/g"},
	{"./g", "http://a/b/c/g"},
	{"g/", "http://a/b/c/g/"},
	{"/g", "http://a/g"},
	{"//g", "http://g"},
	{"?y", "http://a/b/c/d;p?y"},
	{"g?y", "http://a/b/c/g?y"},
	{"#s", "http://a/b/c/d;p?q#s"},
	{"g#s", "http://a/b/c/g#s"},
	{"g?y#s", "http://a/b/c/g?y#s"},
	{";x", "http://a/b/c/;x"},
	{"g;x", "http://a/b/c/g;x"},
	{"g;x?y#s", "http://a/b/c/g;x?y#s"},
	{"", "http://a/b/c/d;p?q"},
	{".", "http://a/b/c/"},
	{"./", "http://a/b/c/"},
	{"..", "http://a/b/"},
	{"../", "http://a/b/"},
	{"../g", "http://a/b/g"},
	{"../..", "http://a/"},
	{"../../", "http://a/"},
	{"../../g", "http://a/g"},
}

// TestResolveIRIRFC3986 resolves every §5.4.1 normal example through
// Turtle's @base and through a query's BASE.
func TestResolveIRIRFC3986(t *testing.T) {
	const base = "http://a/b/c/d;p?q"
	for _, c := range rfc3986Normal {
		g := rdf.NewGraph()
		if err := ParseTurtle("@base <"+base+"> . <"+c[0]+"> <http://ex/p> 1 .", g); err != nil {
			t.Fatalf("@base, <%s>: %v", c[0], err)
		}
		if !g.Has(rdf.IRI(c[1]), rdf.IRI("http://ex/p"), rdf.Integer(1)) {
			t.Errorf("@base, <%s>: want %s, got %v", c[0], c[1], subjects(g))
		}
		q, err := ParseQuery("BASE <" + base + "> SELECT * WHERE { <" + c[0] + "> ?p ?o }")
		if err != nil {
			t.Fatalf("BASE, <%s>: %v", c[0], err)
		}
		if got := q.Where.Elems[0].(BGP).Triples[0].S.Term; got != rdf.IRI(c[1]) {
			t.Errorf("BASE, <%s>: want %s, got %v", c[0], c[1], got)
		}
	}
}

// TestRelativeIRIsResolveAgainstBase: relative references, a relative
// base and prefix namespaces resolve against the base in force rather
// than being appended to it, and with no base a reference stays as
// written.
func TestRelativeIRIsResolveAgainstBase(t *testing.T) {
	g := rdf.NewGraph()
	err := ParseTurtle(`@base <http://ex/dir/doc> .
@prefix r: <sub/> .
<other> <../up> </abs> .
r:x <p> <dép> .
@base <nested/> .
<y> <p> 1 .`, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range [][3]rdf.Term{
		{rdf.IRI("http://ex/dir/other"), rdf.IRI("http://ex/up"), rdf.IRI("http://ex/abs")},
		{rdf.IRI("http://ex/dir/sub/x"), rdf.IRI("http://ex/dir/p"), rdf.IRI("http://ex/dir/dép")},
		{rdf.IRI("http://ex/dir/nested/y"), rdf.IRI("http://ex/dir/nested/p"), rdf.Integer(1)},
	} {
		if !g.Has(tr[0], tr[1], tr[2]) {
			t.Errorf("missing %v %v %v; have %v", tr[0], tr[1], tr[2], subjects(g))
		}
	}
	g = rdf.NewGraph()
	if err := ParseTurtle(`<rel> <../p> <#o> .`, g); err != nil {
		t.Fatal(err)
	}
	if !g.Has(rdf.IRI("rel"), rdf.IRI("../p"), rdf.IRI("#o")) {
		t.Errorf("with no base: %v", subjects(g))
	}
}

func subjects(g *rdf.Graph) []string {
	var out []string
	g.Triples(func(s, p, o rdf.Term) bool {
		out = append(out, s.Key()+" "+p.Key()+" "+o.Key())
		return true
	})
	return out
}

// termTable lists term texts on which readers with rules of their own
// easily disagree: typed integers and floats, dots inside names, signs
// and an empty language tag.
var termTable = []string{
	`"5"^^xsd:int`, `"7"^^xsd:long`, `"2.5"^^xsd:float`, `ex:x.y`, `_:b.1`, `+4`, `-2.5`, `"x"@`,
}

// termRoutes reads term text as the object of one triple by each route
// a term enters the store or a query: a Turtle document, INSERT DATA,
// and a query's constant. A route fails unless it reads exactly that
// one triple. The '.' sits on a line of its own, so a comment in the
// text cannot swallow it.
var termRoutes = []struct {
	name string
	read func(text string) (rdf.Term, error)
}{
	{"turtle", func(text string) (rdf.Term, error) {
		g := rdf.NewGraph()
		if err := ParseTurtle(difftest.Prefixes+"<http://ex/s> <http://ex/p> "+text+"\n.\n", g); err != nil {
			return nil, err
		}
		var out rdf.Term
		n := 0
		g.Triples(func(s, p, o rdf.Term) bool {
			n++
			if s == rdf.IRI("http://ex/s") && p == rdf.IRI("http://ex/p") {
				out = o
			}
			return true
		})
		if n != 1 || out == nil {
			return nil, fmt.Errorf("read %d triples", n)
		}
		return out, nil
	}},
	{"INSERT DATA", func(text string) (rdf.Term, error) {
		st, err := ParseStatement(difftest.Prefixes + "INSERT DATA { <http://ex/s> <http://ex/p> " + text + "\n.\n}")
		if err != nil {
			return nil, err
		}
		ins, ok := st.(*InsertData)
		if !ok || ins.Graph != "" {
			return nil, fmt.Errorf("not a default-graph INSERT DATA: %T", st)
		}
		return onlyObject(ins.Triples)
	}},
	{"query", func(text string) (rdf.Term, error) {
		q, err := ParseQuery(difftest.Prefixes + "SELECT * WHERE { <http://ex/s> <http://ex/p> " + text + "\n.\n}")
		if err != nil {
			return nil, err
		}
		if len(q.Where.Elems) != 1 {
			return nil, fmt.Errorf("%d pattern elements", len(q.Where.Elems))
		}
		bgp, ok := q.Where.Elems[0].(BGP)
		if !ok {
			return nil, fmt.Errorf("pattern is a %T", q.Where.Elems[0])
		}
		return onlyObject(bgp.Triples)
	}},
}

// onlyObject returns the ground object of the one pattern <s> <p> o.
func onlyObject(tps []TriplePattern) (rdf.Term, error) {
	if len(tps) != 1 {
		return nil, fmt.Errorf("read %d triples", len(tps))
	}
	tp := tps[0]
	if tp.S.Term != rdf.IRI("http://ex/s") || tp.Path != (PathIRI{IRI: "http://ex/p"}) || tp.O.IsVar() {
		return nil, fmt.Errorf("read %v", tp)
	}
	return tp.O.Term, nil
}

// termsAgree checks that every route fails on text, or all read the
// same term; blank nodes are compared by position, since each route
// names its blanks its own way.
func termsAgree(text string) error {
	var first rdf.Term
	var firstErr error
	for i, r := range termRoutes {
		got, err := r.read(text)
		if i == 0 {
			first, firstErr = got, err
			continue
		}
		switch {
		case (err == nil) != (firstErr == nil):
			return fmt.Errorf("%q: %s reads %v (%v), %s reads %v (%v)", text,
				termRoutes[0].name, first, firstErr, r.name, got, err)
		case err != nil:
		case isBlank(got) && isBlank(first):
		case !rdf.SameTerm(got, first):
			return fmt.Errorf("%q: %s reads %s, %s reads %s", text, termRoutes[0].name, first.Key(), r.name, got.Key())
		}
	}
	return nil
}

func isBlank(t rdf.Term) bool {
	_, ok := t.(rdf.Blank)
	return ok
}

// TestTurtleAndSPARQLNameTheSameTerm: a Turtle document, INSERT DATA
// and a query constant read the same text as the same term, or all
// reject it — over the terms that drifted and every kind difftest.Term
// draws.
func TestTurtleAndSPARQLNameTheSameTerm(t *testing.T) {
	texts := append([]string(nil), termTable...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		texts = append(texts, difftest.Term(rng))
	}
	for _, text := range texts {
		if err := termsAgree(text); err != nil {
			t.Error(err)
		}
	}
	// The table's expected readings.
	for text, want := range map[string]rdf.Term{
		`"5"^^xsd:int`:     rdf.Integer(5),
		`"7"^^xsd:long`:    rdf.Integer(7),
		`"2.5"^^xsd:float`: rdf.Float(2.5),
		`ex:x.y`:           rdf.IRI("http://ex/x.y"),
		`+4`:               rdf.Integer(4),
		`-2.5`:             rdf.Float(-2.5),
	} {
		got, err := termRoutes[0].read(text)
		if err != nil || !rdf.SameTerm(got, want) {
			t.Errorf("%s reads %v (%v), want %s", text, got, err, want.Key())
		}
	}
	for _, text := range []string{`"x"@`, `- 4`, `-"4"`} {
		if _, err := termRoutes[0].read(text); err == nil {
			t.Errorf("%s was accepted", text)
		}
	}
}

// FuzzTermSyntaxAgrees checks termsAgree over fuzzed term text. Text
// that holds statement punctuation outside a string or IRI is skipped:
// it is not one term, and the two grammars legitimately split
// statements differently (SPARQL lets a '.' be left out).
func FuzzTermSyntaxAgrees(f *testing.F) {
	for _, s := range termTable {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		f.Add(difftest.Term(rng))
	}
	f.Fuzz(func(t *testing.T, text string) {
		lex := newSLexer(text, "sciSPARQL")
		for {
			tk, err := lex.next()
			if err != nil || tk.kind == tEOF {
				break
			}
			if tk.kind == tPunct && strings.Contains(".;,{}", tk.text) {
				t.Skip()
			}
		}
		if err := termsAgree(text); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkParseTurtle reads a generated document of the benchmark's
// bibliographic shape — documents typed, placed in a journal, dated,
// titled and credited to three authors, abstracts on a third — of
// 156 669 triples.
func BenchmarkParseTurtle(b *testing.B) {
	src, n := biblioTurtle(20000)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := rdf.NewGraph()
		if err := ParseTurtle(src, g); err != nil {
			b.Fatal(err)
		}
		if g.Size() != n {
			b.Fatalf("read %d triples, want %d", g.Size(), n)
		}
	}
}

func biblioTurtle(docs int) (string, int) {
	var sb strings.Builder
	triples := 0
	authors := docs/4 + 1
	sb.WriteString("@prefix b: <http://example.org/bench/> .\n")
	for a := 0; a < authors; a++ {
		fmt.Fprintf(&sb, "b:author%d b:type b:Person ; b:name \"Author %d\" .\n", a, a)
		triples += 2
	}
	for d := 0; d < docs; d++ {
		fmt.Fprintf(&sb, "b:doc%d b:type b:Article ; b:journal b:journal%d ; b:year %d ; b:title \"Title %d\" ; b:creator b:author%d , b:author%d , b:author%d",
			d, d%8, 1990+d%20, d, 3*d%authors, (3*d+1)%authors, (3*d+2)%authors)
		triples += 7
		if d%3 == 0 {
			fmt.Fprintf(&sb, " ; b:abstract \"Abstract of doc %d\"", d)
			triples++
		}
		sb.WriteString(" .\n")
	}
	return sb.String(), triples
}

// TestDottedNames: prefixed names and blank labels keep the dots inside
// them and give a trailing run of dots back to end the statement.
func TestDottedNames(t *testing.T) {
	g := rdf.NewGraph()
	if err := ParseTurtle(`@prefix ex: <http://ex/> .
ex:a.b ex:p.q _:x..y.
_:x..y ex:p ex:c...d.`, g); err != nil {
		t.Fatal(err)
	}
	var blank rdf.Term
	g.Triples(func(s, p, o rdf.Term) bool {
		if s == rdf.IRI("http://ex/a.b") && p == rdf.IRI("http://ex/p.q") {
			blank = o
		}
		return true
	})
	if g.Size() != 2 || blank == nil || !g.Has(blank, rdf.IRI("http://ex/p"), rdf.IRI("http://ex/c...d")) {
		t.Fatalf("read %v", subjects(g))
	}
	q, err := ParseQuery(`PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:p.q ex:o. }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Where.Elems[0].(BGP).Triples[0].String(); got != "?s <http://ex/p.q> <http://ex/o>" {
		t.Fatalf("parsed %s", got)
	}
}

// TestErrorsNameTheirSyntax: the shared lexer and term rules report in
// the grammar of the text they read, with the line of the fault.
func TestErrorsNameTheirSyntax(t *testing.T) {
	for _, c := range []struct {
		err          error
		where, cause string
	}{
		{ParseTurtle(`<http://ex/s> <http://ex/p> "x"@ .`, rdf.NewGraph()), "turtle: line 1 ", "empty language tag"},
		{ParseTurtle("<http://ex/s> <http://ex/p>\n  \"x\"^^<http://www.w3.org/2001/XMLSchema#int> .", rdf.NewGraph()), "turtle: line 2 ", "bad xsd:integer literal"},
		{ParseTurtle(`<http://ex/s> <http://ex/p> "\u00G0" .`, rdf.NewGraph()), "turtle: line 1 ", "not a hex digit"},
		{func() error { _, err := ParseQuery(`SELECT * WHERE { ?s ?p "x"@ }`); return err }(), "sciSPARQL: line 1 ", "empty language tag"},
	} {
		if c.err == nil || !strings.HasPrefix(c.err.Error(), c.where) || !strings.Contains(c.err.Error(), c.cause) {
			t.Errorf("error %v, want %q… %q", c.err, c.where, c.cause)
		}
	}
}

// TestPrefixRedeclaredMidDocument: a prefixed name read after its prefix
// is declared again expands to the new namespace — in a Turtle document,
// whose reader memoizes expansions, and across the prologues of a SPARQL
// script.
func TestPrefixRedeclaredMidDocument(t *testing.T) {
	g := rdf.NewGraph()
	if err := ParseTurtle(`@prefix ex: <http://a/> .
ex:s ex:p ex:o .
@prefix ex: <http://b/> .
ex:s ex:p ex:o .
PREFIX ex: <http://c/>
ex:s ex:p ex:o .`, g); err != nil {
		t.Fatal(err)
	}
	for _, ns := range []string{"http://a/", "http://b/", "http://c/"} {
		if !g.Has(rdf.IRI(ns+"s"), rdf.IRI(ns+"p"), rdf.IRI(ns+"o")) {
			t.Errorf("Turtle: no triple in %s; read %v", ns, subjects(g))
		}
	}
	if g.Size() != 3 {
		t.Errorf("Turtle: read %d triples, want 3", g.Size())
	}
	stmts, err := ParseAll(`PREFIX ex: <http://a/> SELECT * WHERE { ?s ex:p ?o } ;
PREFIX ex: <http://b/> SELECT * WHERE { ?s ex:p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	for i, ns := range []string{"http://a/", "http://b/"} {
		got := stmts[i].(*Query).Where.Elems[0].(BGP).Triples[0].String()
		if want := "?s <" + ns + "p> ?o"; got != want {
			t.Errorf("SPARQL statement %d parsed %s, want %s", i, got, want)
		}
	}
}

// TestTermIDsInOrderOfAppearance: the reader interns each term as it
// reads it, so a flat document's terms — however each is written, as an
// IRI ref or a prefixed name, and however often — take dictionary IDs in
// the order they first appear; a name met again under a redeclared
// prefix means the new namespace, and the IRI ref <ex:p> is not the
// prefixed name ex:p.
func TestTermIDsInOrderOfAppearance(t *testing.T) {
	g := rdf.NewGraph()
	if err := ParseTurtle(`@prefix ex: <http://ex/> .
ex:s ex:p "lit" , 5 , ex:o ;
  a ex:C ;
  ex:q _:b1 , <http://ex/o> , 5 , 05 .
_:b1 ex:p ex:s ; ex:r 5.5 , true , "x"@en ; a <http://ex/C> .
@prefix ex: <http://ex/2/> .
<ex:p> ex:p 1e3 .`, g); err != nil {
		t.Fatal(err)
	}
	want := []rdf.Term{
		rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.String{Val: "lit"}, rdf.Integer(5),
		rdf.IRI("http://ex/o"), rdf.RDFType, rdf.IRI("http://ex/C"), rdf.IRI("http://ex/q"),
		rdf.Blank("g1"), rdf.IRI("http://ex/r"), rdf.Float(5.5), rdf.Boolean(true),
		rdf.String{Val: "x", Lang: "en"}, rdf.IRI("ex:p"), rdf.IRI("http://ex/2/p"), rdf.Float(1000),
	}
	if n := g.DictStats().Terms; n != len(want) {
		t.Fatalf("interned %d terms, want %d", n, len(want))
	}
	for i, w := range want {
		if got := g.TermOf(rdf.ID(i + 1)); !rdf.SameTerm(got, w) {
			t.Errorf("ID %d is %v, want %v", i+1, got, w)
		}
	}
	if g.Size() != 13 {
		t.Errorf("read %d triples, want 13: %v", g.Size(), subjects(g))
	}
}

// TestNestedBlanksKeepTheirNumbers: blank property lists, collections
// and labels nested in one another take graph blanks in the order the
// reader mints them — a label's at its first use, a property list's node
// when its '[' is read, a collection's cells after its items — which is
// the numbering a document has always loaded to. Interning in reading
// order gives the outer subject its ID before the inner triples' terms;
// the numbers of the blanks do not move.
func TestNestedBlanksKeepTheirNumbers(t *testing.T) {
	g := rdf.NewGraph()
	if err := ParseTurtle(`@prefix ex: <http://ex/> .
ex:a ex:p [ ex:q [ ex:r 1 ] ; ex:s ( 1 [ ex:t 2 ] ( 3 ) ) ] .
_:x ex:p _:y . _:y ex:p ( ) , _:x .
( 4 5 ) ex:p [ ] .
[ ex:u 6 ] .
`, g); err != nil {
		t.Fatal(err)
	}
	const rdfNS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	want := []string{
		"<http://ex/a> <http://ex/p> _:g1",
		"_:g1 <http://ex/q> _:g2",
		"_:g1 <http://ex/s> _:g5",
		"_:g10 <http://ex/p> _:g12",
		"_:g10 <" + rdfNS + "first> 4",
		"_:g10 <" + rdfNS + "rest> _:g11",
		"_:g11 <" + rdfNS + "first> 5",
		"_:g11 <" + rdfNS + "rest> <" + rdfNS + "nil>",
		"_:g13 <http://ex/u> 6",
		"_:g2 <http://ex/r> 1",
		"_:g3 <http://ex/t> 2",
		"_:g4 <" + rdfNS + "first> 3",
		"_:g4 <" + rdfNS + "rest> <" + rdfNS + "nil>",
		"_:g5 <" + rdfNS + "first> 1",
		"_:g5 <" + rdfNS + "rest> _:g6",
		"_:g6 <" + rdfNS + "first> _:g3",
		"_:g6 <" + rdfNS + "rest> _:g7",
		"_:g7 <" + rdfNS + "first> _:g4",
		"_:g7 <" + rdfNS + "rest> <" + rdfNS + "nil>",
		"_:g8 <http://ex/p> _:g9",
		"_:g9 <http://ex/p> <" + rdfNS + "nil>",
		"_:g9 <http://ex/p> _:g8",
	}
	var got []string
	g.Triples(func(s, p, o rdf.Term) bool {
		got = append(got, s.String()+" "+p.String()+" "+o.String())
		return true
	})
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("read\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestGuardTurtleParseAllocs: the reader interns a name once and stages
// triples by ID, and the lexer takes names, IRIs and punctuation from the
// source, so ParseTurtle of the benchmark's 156 669-triple document
// allocates at most 2.2 times per triple. It allocated 4.01 times per
// triple when every name was expanded, boxed and looked up in the
// dictionary at each occurrence, and 0.73 since.
func TestGuardTurtleParseAllocs(t *testing.T) {
	src, n := biblioTurtle(20000)
	allocs := testing.AllocsPerRun(1, func() {
		if err := ParseTurtle(src, rdf.NewGraph()); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(n); per > 2.2 {
		t.Errorf("ParseTurtle allocates %.2f times per triple (%.0f for %d), want at most 2.2", per, allocs, n)
	}
}

// TestLoadedTermsDoNotPinTheDocument: the lexer hands out slices of the
// source, so every term a loaded graph keeps — IRIs kept verbatim or
// resolved against a base, expanded names, literals, language tags,
// blanks — must be a copy, or one term would keep the whole document
// alive.
func TestLoadedTermsDoNotPinTheDocument(t *testing.T) {
	src := strings.Clone(`@prefix ex: <http://ex/> .
<http://ex/s> ex:p "lit"@en , <rel> , _:b , "x"^^<http://ex/dt> , ex: .
@base <http://base/> .
<rel> <http://ex/p> <http://ex/o> .`)
	g := rdf.NewGraph()
	if err := ParseTurtle(src, g); err != nil {
		t.Fatal(err)
	}
	start := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	inSource := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= start && p < start+uintptr(len(src))
	}
	for id := 1; id <= g.DictStats().Terms; id++ {
		var texts []string
		switch v := g.TermOf(rdf.ID(id)).(type) {
		case rdf.IRI:
			texts = []string{string(v)}
		case rdf.Blank:
			texts = []string{string(v)}
		case rdf.String:
			texts = []string{v.Val, v.Lang}
		case rdf.Typed:
			texts = []string{v.Lexical, string(v.Datatype)}
		}
		for _, s := range texts {
			if inSource(s) {
				t.Errorf("term %d (%v) holds %q inside the document's bytes", id, g.TermOf(rdf.ID(id)), s)
			}
		}
	}
}
