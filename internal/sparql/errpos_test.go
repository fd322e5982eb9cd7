package sparql

import (
	"testing"

	"scisparql/internal/rdf"
)

// errorPositionCases are malformed queries, updates and Turtle
// documents, each with the full error text the rune-at-a-time lexer
// reported, which tracked line and column as it went: non-ASCII text and
// spaces, invalid UTF-8, tabs, CR and CRLF line ends and multi-line long
// strings before the fault, bad \u and \U escapes, IRIs and strings left
// open at the end of input, faults at line 1 col 1 and at the end of
// input, and a number where a predicate must be, also once the same
// number was read as an object.
var errorPositionCases = []struct{ kind, src, want string }{
	{"turtle", "<http://ex/s> <http://ex/p> \"é\" ; <http://ex/q> @ .",
		"turtle: line 1 col 49: expected RDF term, found \"\""},
	{"turtle", "ex:s ex:p ex:o .",
		"turtle: line 1 col 1: undefined prefix \"ex\""},
	{"turtle", "@prefix ex: <http://ex/> .\n\tex:s\tex:p\t\"x\"@ .",
		"turtle: line 2 col 15: empty language tag"},
	{"turtle", "@prefix ex: <http://ex/> .\r\nex:s ex:p ex:o .\r\nex:s ex:p .\r\n",
		"turtle: line 3 col 11: expected RDF term, found \".\""},
	{"turtle", "@prefix ex: <http://ex/> .\nex:s ex:p \"\"\"line1\nline2 ü\nline3\"\"\" ; ex:q ] .",
		"turtle: line 4 col 17: expected RDF term, found \"]\""},
	{"turtle", "<http://ex/s> <http://ex/p> \"\\u00G0\" .",
		"turtle: line 1 col 35: bad \\u escape: 'G' is not a hex digit"},
	{"turtle", "<http://ex/s> <http://ex/p> \"\\U00110000\" .",
		"turtle: line 1 col 40: \\U escape beyond U+10FFFF"},
	{"turtle", "<http://ex/s> <http://ex/p> \"\\uD800\" .",
		"turtle: line 1 col 36: \\u escape U+D800 is a UTF-16 surrogate half, not a character"},
	{"turtle", "<http://ex/s> <http://ex/p> \"\\u00",
		"turtle: line 1 col 34: truncated \\u escape: want 4 hex digits, got 2"},
	{"turtle", "<http://ex/s> <http://ex/p> <http://ex/o",
		"turtle: line 1 col 29: expected RDF term, found \"<\""},
	{"turtle", "<http://ex/s> <http://ex/p\\u00zz> <http://ex/o> .",
		"turtle: line 1 col 32: bad \\u escape: 'z' is not a hex digit"},
	{"turtle", "<http://ex/s> <http://ex/p\\n> <http://ex/o> .",
		"turtle: line 1 col 29: bad escape \\n in IRI (only \\u and \\U are allowed)"},
	{"turtle", "<http://ex/s> <http://ex/p> \"abc",
		"turtle: line 1 col 33: unterminated string"},
	{"turtle", "<http://ex/s> <http://ex/p> \"\"\"abc\n\ndéf",
		"turtle: line 3 col 4: unterminated string"},
	{"turtle", "<http://ex/ö> <http://ex/p> \"x\"@ .",
		"turtle: line 1 col 32: empty language tag"},
	{"turtle", "@prefix ex: <http://ex/> .\nex:naïve ex:p ex:o ex:q .",
		"turtle: line 2 col 20: expected \".\", found \"ex:q\""},
	{"turtle", "<http://ex/s> <http://ex/p> \"\xff\" \xff .",
		"turtle: line 1 col 33: unexpected character '�'"},
	{"turtle", "\n\n\t%",
		"turtle: line 3 col 2: unexpected character '%'"},
	{"turtle", "_: <http://ex/p> <http://ex/o> .",
		"turtle: line 1 col 3: empty blank node label"},
	{"turtle", "# commentaire é\n<http://ex/s> <http://ex/p> .",
		"turtle: line 2 col 29: expected RDF term, found \".\""},
	{"turtle", "<http://ex/s> <http://ex/p> (1 2",
		"turtle: line 1 col 33: unterminated collection"},
	{"turtle", "@prefix ex <http://ex/> .",
		"turtle: line 1 col 9: expected prefix name, found \"ex\""},
	{"turtle", "<http://ex/s> <http://ex/p> \"😀\" x .",
		"turtle: line 1 col 33: expected \".\", found \"x\""},
	{"turtle", "<http://ex/s>\r<http://ex/p> \"x\" ;; ] .",
		"turtle: line 1 col 34: expected IRI, found \";\""},
	{"turtle", "<http://ex/s> <http://ex/p> <http://ex/o>   \n\n  ",
		"turtle: line 3 col 3: expected \".\", found end of input"},
	{"turtle", "<http://ex/s> <http://ex/p> \"x\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
		"turtle: line 1 col 77: bad xsd:integer literal \"x\""},
	{"turtle", "@prefix ex: <http://ex/> .\nex:s ex:p [ ex:q \"日本\" ; ex:r [ ex:t ] ] .",
		"turtle: line 2 col 37: expected RDF term, found \"]\""},
	{"turtle", "<http://ex/s> <http://ex/p> 'it''s' .",
		"turtle: line 1 col 33: expected \".\", found \"s\""},
	{"turtle", "<http://ex/s>\u00a0<http://ex/p>\u2003\"x\"@ .",
		"turtle: line 1 col 32: empty language tag"},
	{"turtle", "<http://ex/s> 5 <http://ex/o> .",
		"turtle: line 1 col 15: expected IRI, found \"5\""},
	{"turtle", "<http://ex/s> <http://ex/p> 5 .\n<http://ex/s> 5 <http://ex/o> .",
		"turtle: line 2 col 15: expected IRI, found \"5\""},
	{"query", "SELECT * WHERE { ?s ?p \"é\" . FILTER(?s && ) }",
		"sciSPARQL: line 1 col 43: expected expression, found \")\""},
	{"query", "FOO",
		"sciSPARQL: line 1 col 1: expected a query or update, found \"FOO\""},
	{"query", "SELECT ?x\r\nWHERE {\r\n\t?x <http://ex/p> \"a\\u12\" }",
		"sciSPARQL: line 3 col 26: bad \\u escape: '\"' is not a hex digit"},
	{"query", "SELECT * WHERE { ?s ?p '''a\nb\nc''' . FILTER(?s & ?p) }",
		"sciSPARQL: line 3 col 19: expected '&&'"},
	{"query", "SELECT * WHERE { ?s <http://ex/p",
		"sciSPARQL: line 1 col 21: expected property path, found \"<\""},
	{"query", "SELECT * WHERE { ?s ?p \"unterminated",
		"sciSPARQL: line 1 col 37: unterminated string"},
	{"query", "SELECT * WHERE { ?s ?p ?o } LIMIT x",
		"sciSPARQL: line 1 col 35: expected integer, found \"x\""},
	{"query", "SELECT ?é WHERE { ?é ?p ?o . FILTER(?é > ) }",
		"sciSPARQL: line 1 col 42: expected expression, found \")\""},
	{"query", "SELECT * WHERE { ?s ?p ?o }\n\n  LIMIT",
		"sciSPARQL: line 3 col 8: expected integer, found end of input"},
	{"query", "PREFIX ex: <http://ex/>\nSELECT * WHERE { ?s ex:p ?o . ?s ex:q \"日本語\" . ?s bad:x ?o }",
		"sciSPARQL: line 2 col 50: undefined prefix \"bad\""},
	{"query", "SELECT * WHERE { ?s ?p \"x\\qy\" }",
		"sciSPARQL: line 1 col 28: bad escape \\q"},
	{"update", "INSERT DATA { <http://ex/s> <http://ex/p> \"ü\" . <http://ex/s> <http://ex/p> }",
		"sciSPARQL: line 1 col 77: expected RDF term, found \"}\""},
	{"update", "DELETE WHERE { ?s ?p ?o }\n;\nINSERT DATA { <http://ex/s> <http://ex/p> \"\\U0000D800\" }",
		"sciSPARQL: line 3 col 54: \\U escape U+D800 is a UTF-16 surrogate half, not a character"},
	{"update", "PREFIX ex: <http://ex/>\r\nINSERT DATA {\r\n  ex:s ex:p undefined:x\r\n}",
		"sciSPARQL: line 3 col 13: undefined prefix \"undefined\""},
	{"update", "INSERT DATA { <http://ex/s> <http://ex/p> ",
		"sciSPARQL: line 1 col 43: expected RDF term, found end of input"},
	{"update", "LOAD 5",
		"sciSPARQL: line 1 col 6: expected file or IRI after LOAD, found \"5\""},
	{"update", "INSERT DATA { <http://ex/s> <http://ex/p> '''one\ntwo\nthree''' , ?v }",
		"sciSPARQL: line 3 col 16: variables are not allowed in DATA blocks"},
}

// TestErrorPositionsMatchParent: the lexer keeps a token's byte offset
// and computes line and column only when an error is built, and every
// error still reads as it did when they were tracked per rune.
func TestErrorPositionsMatchParent(t *testing.T) {
	for _, c := range errorPositionCases {
		var err error
		switch c.kind {
		case "turtle":
			err = ParseTurtle(c.src, rdf.NewGraph())
		case "query":
			_, err = ParseQuery(c.src)
		default:
			_, err = ParseAll(c.src)
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("%s %q:\n got %v\nwant %s", c.kind, c.src, err, c.want)
		}
	}
}
