package turtle

import (
	"testing"

	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// FuzzParseTurtle asserts the Turtle loader never panics on arbitrary
// documents: loaders run on whatever file or wire payload a client
// ships, so every malformation must surface as an error.
func FuzzParseTurtle(f *testing.F) {
	seeds := []string{
		`@prefix ex: <http://ex/> . ex:s ex:p ex:o .`,
		`@prefix ex: <http://ex/> . ex:m ex:data ((1 2) (3 4)) .`,
		`@prefix foaf: <http://xmlns.com/foaf/0.1/> .
		 <http://ex/a> a foaf:Person ; foaf:name "Alice"@en ; foaf:knows <http://ex/b> , <http://ex/c> .`,
		`<http://ex/s> <http://ex/p> "3.14"^^<http://www.w3.org/2001/XMLSchema#double> .`,
		`@base <http://ex/> . <s> <p> _:b0 . _:b0 <q> true, false, -42, 1.0e3 .`,
		`<http://ex/s> <http://ex/p> [ <http://ex/q> ( "a" "b" ) ] .`,
		`@prefix : <http://ex/> . :s :p """triple
		quoted "string" here""" .`,
		`<http://ex/s> <http://ex/when> "2012-05-13T12:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> .`,
		"PREFIX ex: <http://ex/>\nex:s ex:p ex:o .",
		`# a comment only`,
		``,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// A fresh graph per input: errors are fine, panics are not.
		_ = sparql.ParseTurtle(src, rdf.NewGraph())
	})
}
