package sparql

import (
	"scisparql/internal/rdf"
)

// ParseTurtle reads the Turtle document src — the serialization the
// dissertation writes its RDF in (§3.1.1), collections included, which
// SciSPARQL's loader later consolidates into arrays (§5.3.2) — into g.
// Turtle 1.1 reuses SPARQL's terminals, so the document is scanned by
// the SPARQL lexer and its terms, prefixes and base are read by the
// query parser's rules: a term means the same in a Turtle file, in
// INSERT DATA and in a query. Blank node labels are renamed to
// graph-unique blanks, so parsing several documents into one graph
// never collides. The document loads as one transaction: lock-free
// readers of g see all of its triples or none, and a document that
// fails to parse adds nothing.
func ParseTurtle(src string, g *rdf.Graph) error {
	r := &turtleReader{
		Parser: Parser{lex: newSLexer(src, "turtle"), prefixes: map[string]string{}, pnames: map[string]rdf.IRI{}},
		graph:  g,
		tx:     g.Begin(),
		blanks: map[string]rdf.Blank{},
	}
	defer r.tx.Abort() // a no-op once committed
	if err := r.advance(); err != nil {
		return err
	}
	for r.tok.kind != tEOF {
		if err := r.statement(); err != nil {
			return err
		}
	}
	r.tx.Commit()
	return nil
}

// turtleReader is the Turtle statement loop over the query parser: it
// adds what the parser has no use for — directives ended by '.',
// per-document blank labels, and blank node property lists and
// collections that emit triples as they are read.
type turtleReader struct {
	Parser
	graph  *rdf.Graph
	tx     *rdf.Tx // the document's triples, published together at the end
	blanks map[string]rdf.Blank
}

// statement reads one directive or one triples statement.
func (r *turtleReader) statement() error {
	switch {
	case r.tok.kind == tLang && r.tok.text == "prefix":
		if err := r.prefixDecl(); err != nil {
			return err
		}
		return r.expectPunct(".")
	case r.tok.kind == tLang && r.tok.text == "base":
		if err := r.baseDecl(); err != nil {
			return err
		}
		return r.expectPunct(".")
	case r.tok.isWord("PREFIX"):
		return r.prefixDecl()
	case r.tok.isWord("BASE"):
		return r.baseDecl()
	}
	var subj rdf.Term
	var err error
	switch {
	case r.tok.isPunct("["), r.tok.isPunct("("):
		if subj, err = r.object(); err != nil {
			return err
		}
		// "[ p o ] ." and "( … ) ." may stand alone.
		if r.tok.isPunct(".") {
			return r.advance()
		}
	case r.tok.kind == tBlank:
		subj = r.blankFor(r.tok.text)
		err = r.advance()
	default:
		subj, err = r.iriRef()
	}
	if err != nil {
		return err
	}
	if err := r.predicateObjects(subj); err != nil {
		return err
	}
	return r.expectPunct(".")
}

// predicateObjects reads "p o, o; p o …" about subj.
func (r *turtleReader) predicateObjects(subj rdf.Term) error {
	for {
		var pred rdf.Term = rdf.RDFType
		if r.tok.kind == tWord && r.tok.text == "a" {
			if err := r.advance(); err != nil {
				return err
			}
		} else {
			iri, err := r.iriRef()
			if err != nil {
				return err
			}
			pred = iri
		}
		for {
			obj, err := r.object()
			if err != nil {
				return err
			}
			r.tx.Add(subj, pred, obj)
			if !r.tok.isPunct(",") {
				break
			}
			if err := r.advance(); err != nil {
				return err
			}
		}
		if !r.tok.isPunct(";") {
			return nil
		}
		if err := r.advance(); err != nil {
			return err
		}
		// Turtle allows trailing semicolons before '.' or ']'.
		if r.tok.isPunct(".") || r.tok.isPunct("]") {
			return nil
		}
	}
}

// object reads an object: a blank node label, property list or
// collection here, any other term by the parser's nodeTerm.
func (r *turtleReader) object() (rdf.Term, error) {
	switch {
	case r.tok.kind == tBlank:
		b := r.blankFor(r.tok.text)
		return b, r.advance()
	case r.tok.isPunct("["):
		return r.blankPropertyList()
	case r.tok.isPunct("("):
		return r.collection()
	}
	n, err := r.nodeTerm(false)
	return n.Term, err
}

// blankFor maps a document's blank label to its graph-unique blank.
func (r *turtleReader) blankFor(label string) rdf.Blank {
	if b, ok := r.blanks[label]; ok {
		return b
	}
	b := r.graph.NewBlank()
	r.blanks[label] = b
	return b
}

// blankPropertyList reads "[ p o ; … ]" into a fresh blank.
func (r *turtleReader) blankPropertyList() (rdf.Term, error) {
	if err := r.advance(); err != nil { // '['
		return nil, err
	}
	node := r.graph.NewBlank()
	if !r.tok.isPunct("]") {
		if err := r.predicateObjects(node); err != nil {
			return nil, err
		}
	}
	return node, r.expectPunct("]")
}

// collection reads "( o1 o2 … )" into the rdf:first/rdf:rest list
// encoding (§2.3.5.1) and returns the head node.
func (r *turtleReader) collection() (rdf.Term, error) {
	if err := r.advance(); err != nil { // '('
		return nil, err
	}
	var items []rdf.Term
	for !r.tok.isPunct(")") {
		if r.tok.kind == tEOF {
			return nil, r.errorf("unterminated collection")
		}
		obj, err := r.object()
		if err != nil {
			return nil, err
		}
		items = append(items, obj)
	}
	if err := r.advance(); err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return rdf.RDFNil, nil
	}
	head := rdf.Term(r.graph.NewBlank())
	cur := head
	for i, item := range items {
		r.tx.Add(cur, rdf.RDFFirst, item)
		if i == len(items)-1 {
			r.tx.Add(cur, rdf.RDFRest, rdf.RDFNil)
		} else {
			next := r.graph.NewBlank()
			r.tx.Add(cur, rdf.RDFRest, next)
			cur = next
		}
	}
	return head, nil
}
