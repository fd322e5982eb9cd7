package turtle

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"scisparql/internal/rdf"
)

// Parser reads Turtle documents into an rdf.Graph. Blank node labels
// are renamed to graph-unique blanks, so parsing several documents into
// one graph never collides.
type Parser struct {
	lex      *lexer
	tok      token
	graph    *rdf.Graph
	tx       *rdf.Tx // the document's triples, published together at the end
	prefixes map[string]string
	base     string
	blanks   map[string]rdf.Blank
}

// Parse reads the Turtle document from r into g.
func Parse(r io.Reader, g *rdf.Graph) error {
	src, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return ParseString(string(src), g)
}

// ParseString parses a Turtle document given as a string into g. The
// document loads as one transaction: lock-free readers of g see all of
// its triples or none, and a document that fails to parse adds nothing.
func ParseString(src string, g *rdf.Graph) error {
	p := &Parser{
		lex:      newLexer(src),
		graph:    g,
		tx:       g.Begin(),
		prefixes: map[string]string{},
		blanks:   map[string]rdf.Blank{},
	}
	defer p.tx.Abort() // a no-op once committed
	if err := p.advance(); err != nil {
		return err
	}
	for p.tok.kind != tokEOF {
		if err := p.statement(); err != nil {
			return err
		}
	}
	p.tx.Commit()
	return nil
}

func (p *Parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("turtle: line %d col %d: %s", p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *Parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.errorf("expected %q, found %s", s, p.tok)
	}
	return p.advance()
}

func (p *Parser) statement() error {
	if p.tok.kind == tokKeyword {
		switch p.tok.text {
		case "@prefix", "PREFIX":
			needDot := p.tok.text == "@prefix"
			if err := p.advance(); err != nil {
				return err
			}
			if p.tok.kind != tokPName || !strings.HasSuffix(p.tok.text, ":") {
				return p.errorf("expected prefix declaration, found %s", p.tok)
			}
			name := strings.TrimSuffix(p.tok.text, ":")
			if err := p.advance(); err != nil {
				return err
			}
			if p.tok.kind != tokIRI {
				return p.errorf("expected IRI in prefix declaration, found %s", p.tok)
			}
			p.prefixes[name] = p.resolveIRI(p.tok.text)
			if err := p.advance(); err != nil {
				return err
			}
			if needDot {
				return p.expectPunct(".")
			}
			return nil
		case "@base", "BASE":
			needDot := p.tok.text == "@base"
			if err := p.advance(); err != nil {
				return err
			}
			if p.tok.kind != tokIRI {
				return p.errorf("expected IRI in base declaration, found %s", p.tok)
			}
			p.base = p.tok.text
			if err := p.advance(); err != nil {
				return err
			}
			if needDot {
				return p.expectPunct(".")
			}
			return nil
		}
	}
	if err := p.triples(); err != nil {
		return err
	}
	return p.expectPunct(".")
}

func (p *Parser) resolveIRI(iri string) string {
	if p.base != "" && !strings.Contains(iri, ":") {
		return p.base + iri
	}
	return iri
}

func (p *Parser) triples() error {
	subj, isAnon, err := p.subject()
	if err != nil {
		return err
	}
	// An anonymous blank with property list "[ p o ] ." may stand alone.
	if isAnon && p.tok.kind == tokPunct && p.tok.text == "." {
		return nil
	}
	return p.predicateObjectList(subj)
}

func (p *Parser) subject() (rdf.Term, bool, error) {
	switch p.tok.kind {
	case tokIRI:
		t := rdf.IRI(p.resolveIRI(p.tok.text))
		return t, false, p.advance()
	case tokPName:
		t, err := p.expandPName(p.tok.text)
		if err != nil {
			return nil, false, err
		}
		return t, false, p.advance()
	case tokBlank:
		t := p.blankFor(p.tok.text)
		return t, false, p.advance()
	case tokPunct:
		switch p.tok.text {
		case "[":
			t, err := p.blankNodePropertyList()
			return t, true, err
		case "(":
			t, err := p.collection()
			return t, true, err
		}
	}
	return nil, false, p.errorf("expected subject, found %s", p.tok)
}

func (p *Parser) expandPName(pname string) (rdf.IRI, error) {
	i := strings.Index(pname, ":")
	if i < 0 {
		return "", p.errorf("malformed prefixed name %q", pname)
	}
	prefix, local := pname[:i], pname[i+1:]
	ns, ok := p.prefixes[prefix]
	if !ok {
		return "", p.errorf("undefined prefix %q", prefix)
	}
	return rdf.IRI(ns + local), nil
}

func (p *Parser) blankFor(label string) rdf.Blank {
	if b, ok := p.blanks[label]; ok {
		return b
	}
	b := p.graph.NewBlank()
	p.blanks[label] = b
	return b
}

func (p *Parser) predicateObjectList(subj rdf.Term) error {
	for {
		pred, err := p.predicate()
		if err != nil {
			return err
		}
		for {
			obj, err := p.object()
			if err != nil {
				return err
			}
			p.tx.Add(subj, pred, obj)
			if p.tok.kind == tokPunct && p.tok.text == "," {
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if p.tok.kind == tokPunct && p.tok.text == ";" {
			if err := p.advance(); err != nil {
				return err
			}
			// Turtle allows trailing semicolons before '.' or ']'.
			if p.tok.kind == tokPunct && (p.tok.text == "." || p.tok.text == "]") {
				return nil
			}
			continue
		}
		return nil
	}
}

func (p *Parser) predicate() (rdf.Term, error) {
	switch p.tok.kind {
	case tokKeyword:
		if p.tok.text == "a" {
			return rdf.RDFType, p.advance()
		}
	case tokIRI:
		t := rdf.IRI(p.resolveIRI(p.tok.text))
		return t, p.advance()
	case tokPName:
		t, err := p.expandPName(p.tok.text)
		if err != nil {
			return nil, err
		}
		return t, p.advance()
	}
	return nil, p.errorf("expected predicate, found %s", p.tok)
}

func (p *Parser) object() (rdf.Term, error) {
	switch p.tok.kind {
	case tokIRI:
		t := rdf.IRI(p.resolveIRI(p.tok.text))
		return t, p.advance()
	case tokPName:
		t, err := p.expandPName(p.tok.text)
		if err != nil {
			return nil, err
		}
		return t, p.advance()
	case tokBlank:
		t := p.blankFor(p.tok.text)
		return t, p.advance()
	case tokInteger:
		v, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", p.tok.text)
		}
		return rdf.Integer(v), p.advance()
	case tokDecimal, tokDouble:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", p.tok.text)
		}
		return rdf.Float(v), p.advance()
	case tokKeyword:
		switch p.tok.text {
		case "true":
			return rdf.Boolean(true), p.advance()
		case "false":
			return rdf.Boolean(false), p.advance()
		}
	case tokString:
		return p.literalTail(p.tok.text)
	case tokPunct:
		switch p.tok.text {
		case "[":
			return p.blankNodePropertyList()
		case "(":
			return p.collection()
		}
	}
	return nil, p.errorf("expected object, found %s", p.tok)
}

// literalTail handles optional @lang / ^^datatype after a string.
func (p *Parser) literalTail(val string) (rdf.Term, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch {
	case p.tok.kind == tokLangTag:
		lang := p.tok.text
		return rdf.String{Val: val, Lang: lang}, p.advance()
	case p.tok.kind == tokPunct && p.tok.text == "^^":
		if err := p.advance(); err != nil {
			return nil, err
		}
		var dt rdf.IRI
		switch p.tok.kind {
		case tokIRI:
			dt = rdf.IRI(p.resolveIRI(p.tok.text))
		case tokPName:
			var err error
			dt, err = p.expandPName(p.tok.text)
			if err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("expected datatype IRI, found %s", p.tok)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return typedLiteral(val, dt)
	default:
		return rdf.String{Val: val}, nil
	}
}

// typedLiteral interprets recognized XSD datatypes into native terms
// and preserves unknown datatypes verbatim.
func typedLiteral(val string, dt rdf.IRI) (rdf.Term, error) {
	switch dt {
	case rdf.XSDInteger, rdf.IRI("http://www.w3.org/2001/XMLSchema#int"),
		rdf.IRI("http://www.w3.org/2001/XMLSchema#long"):
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("turtle: bad xsd:integer literal %q", val)
		}
		return rdf.Integer(v), nil
	case rdf.XSDDouble, rdf.XSDDecimal, rdf.IRI("http://www.w3.org/2001/XMLSchema#float"):
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("turtle: bad numeric literal %q", val)
		}
		return rdf.Float(v), nil
	case rdf.XSDBoolean:
		switch strings.TrimSpace(val) {
		case "true", "1":
			return rdf.Boolean(true), nil
		case "false", "0":
			return rdf.Boolean(false), nil
		}
		return nil, fmt.Errorf("turtle: bad xsd:boolean literal %q", val)
	case rdf.XSDDateTime:
		t, err := time.Parse(time.RFC3339, strings.TrimSpace(val))
		if err != nil {
			return nil, fmt.Errorf("turtle: bad xsd:dateTime literal %q", val)
		}
		return rdf.DateTime{T: t}, nil
	case rdf.XSDString:
		return rdf.String{Val: val}, nil
	default:
		return rdf.Typed{Lexical: val, Datatype: dt}, nil
	}
}

func (p *Parser) blankNodePropertyList() (rdf.Term, error) {
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	node := p.graph.NewBlank()
	if p.tok.kind == tokPunct && p.tok.text == "]" {
		return node, p.advance()
	}
	if err := p.predicateObjectList(node); err != nil {
		return nil, err
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	return node, nil
}

// collection parses "( o1 o2 ... )" into the rdf:first/rdf:rest linked
// list encoding (§2.3.5.1) and returns the head node.
func (p *Parser) collection() (rdf.Term, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var items []rdf.Term
	for !(p.tok.kind == tokPunct && p.tok.text == ")") {
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unterminated collection")
		}
		obj, err := p.object()
		if err != nil {
			return nil, err
		}
		items = append(items, obj)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return rdf.RDFNil, nil
	}
	head := rdf.Term(p.graph.NewBlank())
	cur := head
	for i, item := range items {
		p.tx.Add(cur, rdf.RDFFirst, item)
		if i == len(items)-1 {
			p.tx.Add(cur, rdf.RDFRest, rdf.RDFNil)
		} else {
			next := p.graph.NewBlank()
			p.tx.Add(cur, rdf.RDFRest, next)
			cur = next
		}
	}
	return head, nil
}
