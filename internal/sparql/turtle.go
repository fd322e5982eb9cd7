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
		Parser: Parser{lex: newSLexer(src, "turtle"), prefixes: map[string]string{}},
		graph:  g,
		tx:     g.Begin(),
		blanks: map[string]rdf.ID{},
		names:  map[string]rdf.ID{},
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
// collections that emit triples as they are read. It reads terms as the
// graph's IDs, and stages triples by ID.
type turtleReader struct {
	Parser
	graph  *rdf.Graph
	tx     *rdf.Tx // the document's triples, published together at the end
	blanks map[string]rdf.ID
	// names maps the source text of an IRI ref, a prefixed name or an
	// unsigned number to its ID, so a repeated one costs one map hit: no
	// expansion, no boxing, no dictionary lookup. A prefix or base
	// declaration can change what a name means, so each clears it.
	names map[string]rdf.ID
}

// statement reads one directive or one triples statement.
func (r *turtleReader) statement() error {
	switch {
	case r.tok.kind == tLang && r.tok.text == "prefix":
		if err := r.directive(r.prefixDecl); err != nil {
			return err
		}
		return r.expectPunct(".")
	case r.tok.kind == tLang && r.tok.text == "base":
		if err := r.directive(r.baseDecl); err != nil {
			return err
		}
		return r.expectPunct(".")
	case r.tok.isWord("PREFIX"):
		return r.directive(r.prefixDecl)
	case r.tok.isWord("BASE"):
		return r.directive(r.baseDecl)
	}
	var subj rdf.ID
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
		subj, err = r.iri()
	}
	if err != nil {
		return err
	}
	if err := r.predicateObjects(subj); err != nil {
		return err
	}
	return r.expectPunct(".")
}

// directive reads a prefix or base declaration by decl and forgets the
// names read under the old ones.
func (r *turtleReader) directive(decl func() error) error {
	clear(r.names)
	return decl()
}

// predicateObjects reads "p o, o; p o …" about subj.
func (r *turtleReader) predicateObjects(subj rdf.ID) error {
	for {
		var pred rdf.ID
		var err error
		if r.tok.kind == tWord && r.tok.text == "a" {
			pred, err = r.named()
		} else {
			pred, err = r.iri()
		}
		if err != nil {
			return err
		}
		for {
			obj, err := r.object()
			if err != nil {
				return err
			}
			r.tx.AddIDs(subj, pred, obj)
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
// collection here, an IRI or an unsigned number through names, any
// other term by the parser's nodeTerm.
func (r *turtleReader) object() (rdf.ID, error) {
	switch r.tok.kind {
	case tBlank:
		b := r.blankFor(r.tok.text)
		return b, r.advance()
	case tIRI, tPName, tInt, tDec, tDbl:
		return r.named()
	case tPunct:
		switch {
		case r.tok.isPunct("["):
			return r.blankPropertyList()
		case r.tok.isPunct("("):
			return r.collection()
		}
	}
	n, err := r.nodeTerm(false)
	if err != nil {
		return 0, err
	}
	return r.graph.Intern(n.Term), nil
}

// iri reads an IRI ref or prefixed name as its ID.
func (r *turtleReader) iri() (rdf.ID, error) {
	if r.tok.kind != tIRI && r.tok.kind != tPName {
		_, err := r.iriRef() // the parser's error
		return 0, err
	}
	return r.named()
}

// named reads the IRI ref, prefixed name, unsigned number or predicate
// "a" at the token as its ID, through names. The key is the token's
// source text — an IRI ref's with its brackets, so <b:x> and b:x stay
// apart; the parser holds one token, so the lexer stands just past it.
func (r *turtleReader) named() (rdf.ID, error) {
	key := r.lex.src[r.tok.off:r.lex.pos]
	if id, ok := r.names[key]; ok {
		return id, r.advance()
	}
	var t rdf.Term
	var err error
	switch r.tok.kind {
	case tWord:
		t, err = rdf.RDFType, r.advance()
	case tInt, tDec, tDbl:
		t, err = r.number("")
	default:
		t, err = r.iriRef()
	}
	if err != nil {
		return 0, err
	}
	id := r.graph.Intern(t)
	r.names[key] = id
	return id, nil
}

// blankFor maps a document's blank label to its graph-unique blank.
func (r *turtleReader) blankFor(label string) rdf.ID {
	if id, ok := r.blanks[label]; ok {
		return id
	}
	id := r.newBlank()
	r.blanks[label] = id
	return id
}

// newBlank interns a fresh graph-unique blank.
func (r *turtleReader) newBlank() rdf.ID { return r.graph.Intern(r.graph.NewBlank()) }

// blankPropertyList reads "[ p o ; … ]" into a fresh blank.
func (r *turtleReader) blankPropertyList() (rdf.ID, error) {
	if err := r.advance(); err != nil { // '['
		return 0, err
	}
	node := r.newBlank()
	if !r.tok.isPunct("]") {
		if err := r.predicateObjects(node); err != nil {
			return 0, err
		}
	}
	return node, r.expectPunct("]")
}

// collection reads "( o1 o2 … )" into the rdf:first/rdf:rest list
// encoding (§2.3.5.1) and returns the head node.
func (r *turtleReader) collection() (rdf.ID, error) {
	if err := r.advance(); err != nil { // '('
		return 0, err
	}
	var items []rdf.ID
	for !r.tok.isPunct(")") {
		if r.tok.kind == tEOF {
			return 0, r.errorf("unterminated collection")
		}
		obj, err := r.object()
		if err != nil {
			return 0, err
		}
		items = append(items, obj)
	}
	if err := r.advance(); err != nil {
		return 0, err
	}
	if len(items) == 0 {
		return r.graph.Intern(rdf.RDFNil), nil
	}
	head := r.newBlank()
	first, rest, end := r.graph.Intern(rdf.RDFFirst), r.graph.Intern(rdf.RDFRest), r.graph.Intern(rdf.RDFNil)
	cur := head
	for i, item := range items {
		r.tx.AddIDs(cur, first, item)
		next := end
		if i < len(items)-1 {
			next = r.newBlank()
		}
		r.tx.AddIDs(cur, rest, next)
		cur = next
	}
	return head, nil
}
