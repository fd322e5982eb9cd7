package sparql

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"scisparql/internal/rdf"
)

// Parser is a recursive-descent parser for SciSPARQL queries and
// updates. It follows the SPARQL 1.1 grammar for the standard subset
// (an SLR-style grammar is used in SSDM, §5.4.1; recursive descent
// recognizes the same language) with the SciSPARQL additions of
// chapter 4.
type Parser struct {
	lex      *sLexer
	tok      tok
	prefixes map[string]string
	base     string
	blankNo  int
	varNo    int
}

// ParseQuery parses a single SELECT/ASK/CONSTRUCT/DESCRIBE query.
func ParseQuery(src string) (*Query, error) {
	st, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	q, ok := st.(*Query)
	if !ok {
		return nil, fmt.Errorf("sciSPARQL: not a query")
	}
	return q, nil
}

// ParseStatement parses one query or update statement.
func ParseStatement(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sciSPARQL: expected a single statement, found %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a sequence of statements separated by ';'.
func ParseAll(src string) ([]Statement, error) {
	p := &Parser{lex: newSLexer(src, "sciSPARQL"), prefixes: map[string]string{}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var out []Statement
	for p.tok.kind != tEOF {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if p.tok.isPunct(";") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sciSPARQL: empty request")
	}
	return out, nil
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
	return p.lex.errorAt(p.tok.off, format, args...)
}

func (p *Parser) expectPunct(s string) error {
	if !p.tok.isPunct(s) {
		return p.errorf("expected %q, found %s", s, p.tok)
	}
	return p.advance()
}

func (p *Parser) expectWord(kw string) error {
	if !p.tok.isWord(kw) {
		return p.errorf("expected %s, found %s", kw, p.tok)
	}
	return p.advance()
}

func (p *Parser) acceptWord(kw string) bool {
	if p.tok.isWord(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) freshBlank() rdf.Blank {
	p.blankNo++
	return rdf.Blank(fmt.Sprintf("q%d", p.blankNo))
}

// statement parses prologue plus one query or update.
func (p *Parser) statement() (Statement, error) {
	if err := p.prologue(); err != nil {
		return nil, err
	}
	switch {
	case p.tok.isWord("SELECT"), p.tok.isWord("ASK"), p.tok.isWord("CONSTRUCT"), p.tok.isWord("DESCRIBE"):
		return p.query()
	case p.tok.isWord("INSERT"):
		return p.insertStmt()
	case p.tok.isWord("DELETE"):
		return p.deleteStmt()
	case p.tok.isWord("WITH"):
		return p.withModify()
	case p.tok.isWord("LOAD"):
		return p.loadStmt()
	case p.tok.isWord("CLEAR"):
		return p.clearStmt()
	case p.tok.isWord("DEFINE"):
		return p.defineStmt()
	default:
		return nil, p.errorf("expected a query or update, found %s", p.tok)
	}
}

func (p *Parser) prologue() error {
	for {
		var err error
		switch {
		case p.tok.isWord("PREFIX"):
			err = p.prefixDecl()
		case p.tok.isWord("BASE"):
			err = p.baseDecl()
		default:
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// prefixDecl parses a prefix declaration from its keyword (PREFIX, or
// Turtle's @prefix) through the namespace IRI, which is resolved
// against the base in force.
func (p *Parser) prefixDecl() error {
	if err := p.advance(); err != nil {
		return err
	}
	var name string
	switch {
	case p.tok.kind == tPName && strings.IndexByte(p.tok.text, ':') == len(p.tok.text)-1:
		name = p.tok.text[:len(p.tok.text)-1]
	case p.tok.isPunct(":"): // the empty prefix
	default:
		return p.errorf("expected prefix name, found %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.kind != tIRI {
		return p.errorf("expected namespace IRI, found %s", p.tok)
	}
	p.prefixes[name] = string(p.resolveIRI(p.tok.text))
	return p.advance()
}

// baseDecl parses a base declaration from its keyword (BASE, or
// Turtle's @base) through the IRI, which is resolved against the base
// in force.
func (p *Parser) baseDecl() error {
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.kind != tIRI {
		return p.errorf("expected base IRI, found %s", p.tok)
	}
	p.base = string(p.resolveIRI(p.tok.text))
	return p.advance()
}

func (p *Parser) expandPName(pname string) (rdf.IRI, error) {
	i := strings.Index(pname, ":")
	if i < 0 {
		return "", p.errorf("malformed prefixed name %q", pname)
	}
	ns, ok := p.prefixes[pname[:i]]
	if !ok {
		return "", p.errorf("undefined prefix %q", pname[:i])
	}
	return rdf.IRI(ns + pname[i+1:]), nil
}

// resolveIRI resolves an IRI reference against the base in force by
// RFC 3986 §5.2: a reference with a scheme is absolute and kept as
// written; any other is merged with the base and its dot segments
// removed. It works on the text and percent-encodes nothing, so
// non-ASCII IRIs stay as written. With no base a reference is kept
// verbatim, copied: a token's text is the source's, and a term kept by a
// graph must not pin the whole document.
func (p *Parser) resolveIRI(ref string) rdf.IRI {
	if p.base == "" || hasScheme(ref) {
		return rdf.IRI(strings.Clone(ref))
	}
	// The base as scheme "s:", authority "//a", path and query "?q"
	// (its fragment never counts); the reference as path and suffix.
	rest, _, _ := strings.Cut(p.base, "#")
	scheme, auth, query := "", "", ""
	if hasScheme(rest) {
		i := strings.IndexByte(rest, ':') + 1
		scheme, rest = rest[:i], rest[i:]
	}
	if i := strings.IndexByte(rest, '?'); i >= 0 {
		rest, query = rest[:i], rest[i:]
	}
	if strings.HasPrefix(rest, "//") {
		auth, rest = splitAuthority(rest)
	}
	path, suffix := ref, ""
	if i := strings.IndexAny(ref, "?#"); i >= 0 {
		path, suffix = ref[:i], ref[i:]
	}
	switch {
	case strings.HasPrefix(path, "//"):
		auth, path = splitAuthority(path)
	case path == "":
		path = rest
		if !strings.HasPrefix(suffix, "?") {
			suffix = query + suffix
		}
	case path[0] == '/':
	case auth != "" && rest == "":
		path = "/" + path
	default:
		path = rest[:strings.LastIndexByte(rest, '/')+1] + path
	}
	return rdf.IRI(scheme + auth + removeDotSegments(path) + suffix)
}

// hasScheme reports whether s starts with a URI scheme and its colon:
// ALPHA *( ALPHA / DIGIT / "+" / "-" / "." ) ":".
func hasScheme(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case i > 0 && (c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.'):
		default:
			return i > 0 && c == ':'
		}
	}
	return false
}

// splitAuthority splits "//authority/path" after its authority.
func splitAuthority(s string) (auth, path string) {
	if i := strings.IndexByte(s[2:], '/'); i >= 0 {
		return s[:i+2], s[i+2:]
	}
	return s, ""
}

// removeDotSegments drops a path's "." segments and each ".." with the
// segment before it (RFC 3986 §5.2.4); a path ending in either ends in
// '/'.
func removeDotSegments(path string) string {
	if !strings.Contains(path, ".") {
		return path
	}
	segs := strings.Split(path, "/")
	var out []string
	for i, seg := range segs {
		switch {
		case seg == "..":
			if len(out) > 1 || len(out) == 1 && out[0] != "" {
				out = out[:len(out)-1]
			}
		case seg != ".":
			out = append(out, seg)
			continue
		}
		if i == len(segs)-1 {
			out = append(out, "")
		}
	}
	return strings.Join(out, "/")
}

// --- queries ---

func (p *Parser) query() (*Query, error) {
	q := &Query{Base: p.base, Limit: -1}
	switch {
	case p.acceptWord("SELECT"):
		q.Form = FormSelect
		if p.acceptWord("DISTINCT") {
			q.Distinct = true
		} else if p.acceptWord("REDUCED") {
			q.Reduced = true
		}
		if p.tok.isPunct("*") {
			q.Star = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else {
			for {
				switch {
				case p.tok.kind == tVar:
					q.Items = append(q.Items, SelectItem{Var: p.tok.text})
					if err := p.advance(); err != nil {
						return nil, err
					}
				case p.tok.isPunct("("):
					if err := p.advance(); err != nil {
						return nil, err
					}
					e, err := p.expression()
					if err != nil {
						return nil, err
					}
					if err := p.expectWord("AS"); err != nil {
						return nil, err
					}
					if p.tok.kind != tVar {
						return nil, p.errorf("expected variable after AS, found %s", p.tok)
					}
					name := p.tok.text
					if err := p.advance(); err != nil {
						return nil, err
					}
					if err := p.expectPunct(")"); err != nil {
						return nil, err
					}
					q.Items = append(q.Items, SelectItem{Var: name, Expr: e})
				default:
					if len(q.Items) == 0 {
						return nil, p.errorf("expected projection, found %s", p.tok)
					}
					goto doneSelect
				}
			}
		doneSelect:
		}
	case p.acceptWord("ASK"):
		q.Form = FormAsk
	case p.acceptWord("CONSTRUCT"):
		q.Form = FormConstruct
		tpl, err := p.templateBlock()
		if err != nil {
			return nil, err
		}
		q.ConstructTemplate = tpl
	case p.acceptWord("DESCRIBE"):
		q.Form = FormDescribe
		for {
			switch p.tok.kind {
			case tVar:
				q.DescribeTerms = append(q.DescribeTerms, EVar{Name: p.tok.text})
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			case tIRI, tPName:
				iri, err := p.iriRef()
				if err != nil {
					return nil, err
				}
				q.DescribeTerms = append(q.DescribeTerms, ELit{Term: iri})
				continue
			}
			break
		}
		if len(q.DescribeTerms) == 0 {
			return nil, p.errorf("DESCRIBE needs at least one resource")
		}
	}

	for {
		switch {
		case p.tok.isWord("FROM"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			named := p.acceptWord("NAMED")
			iri, err := p.iriRef()
			if err != nil {
				return nil, err
			}
			if named {
				q.FromNamed = append(q.FromNamed, iri)
			} else {
				q.From = append(q.From, iri)
			}
			continue
		}
		break
	}

	needWhere := q.Form != FormDescribe
	if p.acceptWord("WHERE") || p.tok.isPunct("{") {
		g, err := p.groupGraphPattern()
		if err != nil {
			return nil, err
		}
		q.Where = g
	} else if needWhere {
		return nil, p.errorf("expected WHERE clause, found %s", p.tok)
	}

	if err := p.solutionModifiers(q); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *Parser) iriRef() (rdf.IRI, error) {
	switch p.tok.kind {
	case tIRI:
		iri := p.resolveIRI(p.tok.text)
		return iri, p.advance()
	case tPName:
		iri, err := p.expandPName(p.tok.text)
		if err != nil {
			return "", err
		}
		return iri, p.advance()
	default:
		return "", p.errorf("expected IRI, found %s", p.tok)
	}
}

func (p *Parser) solutionModifiers(q *Query) error {
	if p.acceptWord("GROUP") {
		if err := p.expectWord("BY"); err != nil {
			return err
		}
		for {
			switch {
			case p.tok.kind == tVar:
				q.GroupBy = append(q.GroupBy, EVar{Name: p.tok.text})
				if err := p.advance(); err != nil {
					return err
				}
				continue
			case p.tok.isPunct("("):
				e, err := p.bracketted()
				if err != nil {
					return err
				}
				q.GroupBy = append(q.GroupBy, e)
				continue
			}
			break
		}
		if len(q.GroupBy) == 0 {
			return p.errorf("GROUP BY needs at least one expression")
		}
	}
	if p.acceptWord("HAVING") {
		for p.tok.isPunct("(") {
			e, err := p.bracketted()
			if err != nil {
				return err
			}
			q.Having = append(q.Having, e)
		}
		if len(q.Having) == 0 {
			return p.errorf("HAVING needs at least one constraint")
		}
	}
	if p.acceptWord("ORDER") {
		if err := p.expectWord("BY"); err != nil {
			return err
		}
		for {
			switch {
			case p.tok.isWord("ASC"), p.tok.isWord("DESC"), p.tok.isPunct("("):
				desc := p.tok.isWord("DESC")
				if p.tok.kind == tWord {
					if err := p.advance(); err != nil {
						return err
					}
				}
				e, err := p.bracketted()
				if err != nil {
					return err
				}
				q.OrderBy = append(q.OrderBy, OrderCond{Expr: e, Desc: desc})
				continue
			case p.tok.kind == tVar:
				q.OrderBy = append(q.OrderBy, OrderCond{Expr: EVar{Name: p.tok.text}})
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if len(q.OrderBy) == 0 {
			return p.errorf("ORDER BY needs at least one criterion")
		}
	}
	for {
		switch {
		case p.tok.isWord("LIMIT"):
			if err := p.advance(); err != nil {
				return err
			}
			n, err := p.intLiteral()
			if err != nil {
				return err
			}
			q.Limit = n
			continue
		case p.tok.isWord("OFFSET"):
			if err := p.advance(); err != nil {
				return err
			}
			n, err := p.intLiteral()
			if err != nil {
				return err
			}
			q.Offset = n
			continue
		}
		break
	}
	return nil
}

func (p *Parser) intLiteral() (int, error) {
	if p.tok.kind != tInt {
		return 0, p.errorf("expected integer, found %s", p.tok)
	}
	n, err := strconv.Atoi(p.tok.text)
	if err != nil || n < 0 {
		return 0, p.errorf("bad count %q", p.tok.text)
	}
	return n, p.advance()
}

// --- graph patterns ---

func (p *Parser) groupGraphPattern() (*Group, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	// SPARQL 1.1 subquery: "{ SELECT ... }".
	if p.tok.isWord("SELECT") {
		q, err := p.query()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return &Group{Elems: []Element{SubSelect{Query: q}}}, nil
	}
	g := &Group{}
	for !p.tok.isPunct("}") {
		if p.tok.kind == tEOF {
			return nil, p.errorf("unterminated group graph pattern")
		}
		switch {
		case p.tok.isWord("OPTIONAL"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			sub, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, Optional{Group: sub})
		case p.tok.isWord("MINUS"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			sub, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, Minus{Group: sub})
		case p.tok.isWord("FILTER"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.constraint()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, Filter{Cond: e})
		case p.tok.isWord("BIND"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectWord("AS"); err != nil {
				return nil, err
			}
			if p.tok.kind != tVar {
				return nil, p.errorf("expected variable after AS")
			}
			name := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, Bind{Expr: e, Var: name})
		case p.tok.isWord("VALUES"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			vb, err := p.inlineData()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, *vb)
		case p.tok.isWord("GRAPH"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			gc := GraphClause{}
			if p.tok.kind == tVar {
				gc.Var = p.tok.text
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else {
				iri, err := p.iriRef()
				if err != nil {
					return nil, err
				}
				gc.Name = iri
			}
			sub, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			gc.Group = sub
			g.Elems = append(g.Elems, gc)
		case p.tok.isPunct("{"):
			// Sub-group, possibly a UNION chain.
			first, err := p.groupGraphPattern()
			if err != nil {
				return nil, err
			}
			branches := []*Group{first}
			for p.tok.isWord("UNION") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				next, err := p.groupGraphPattern()
				if err != nil {
					return nil, err
				}
				branches = append(branches, next)
			}
			if len(branches) > 1 {
				g.Elems = append(g.Elems, Union{Branches: branches})
			} else if len(first.Elems) == 1 {
				if ss, isSub := first.Elems[0].(SubSelect); isSub {
					g.Elems = append(g.Elems, ss)
				} else {
					g.Elems = append(g.Elems, SubGroup{Group: first})
				}
			} else {
				g.Elems = append(g.Elems, SubGroup{Group: first})
			}
		case p.tok.isPunct("."):
			if err := p.advance(); err != nil {
				return nil, err
			}
		default:
			bgp := &BGP{}
			if err := p.triplesBlock(bgp); err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, *bgp)
		}
	}
	return g, p.advance()
}

// inlineData parses VALUES ?v { ... } or VALUES (?a ?b) { (...) ... }.
func (p *Parser) inlineData() (*InlineData, error) {
	vb := &InlineData{}
	single := false
	switch {
	case p.tok.kind == tVar:
		vb.Vars = []string{p.tok.text}
		single = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	case p.tok.isPunct("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		for p.tok.kind == tVar {
			vb.Vars = append(vb.Vars, p.tok.text)
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	default:
		return nil, p.errorf("expected VALUES variables, found %s", p.tok)
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.tok.isPunct("}") {
		if single {
			t, err := p.dataValue()
			if err != nil {
				return nil, err
			}
			vb.Rows = append(vb.Rows, []rdf.Term{t})
			continue
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []rdf.Term
		for !p.tok.isPunct(")") {
			t, err := p.dataValue()
			if err != nil {
				return nil, err
			}
			row = append(row, t)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if len(row) != len(vb.Vars) {
			return nil, p.errorf("VALUES row has %d terms for %d variables", len(row), len(vb.Vars))
		}
		vb.Rows = append(vb.Rows, row)
	}
	return vb, p.advance()
}

// dataValue parses a ground term or UNDEF (returned as nil).
func (p *Parser) dataValue() (rdf.Term, error) {
	if p.tok.isWord("UNDEF") {
		return nil, p.advance()
	}
	n, err := p.nodeTerm(false)
	if err != nil {
		return nil, err
	}
	if n.IsVar() {
		return nil, p.errorf("variables not allowed in VALUES data")
	}
	return n.Term, nil
}

// --- triples ---

// triplesBlock parses consecutive triple patterns into bgp.
func (p *Parser) triplesBlock(bgp *BGP) error {
	for {
		before := len(bgp.Triples)
		subj, err := p.nodeOrSyntacticSugar(bgp)
		if err != nil {
			return err
		}
		// A blank-node property list or collection may stand alone as a
		// whole triples block (SPARQL TriplesNode with empty
		// PropertyList).
		sugar := len(bgp.Triples) > before
		if sugar && (p.tok.isPunct(".") || p.tok.isPunct("}")) {
			// no predicate-object list
		} else if err := p.predicateObjectList(bgp, subj); err != nil {
			return err
		}
		if p.tok.isPunct(".") {
			if err := p.advance(); err != nil {
				return err
			}
			// Another triples block may follow.
			if p.startsTriple() {
				continue
			}
		}
		return nil
	}
}

// startsTriple reports whether the current token can begin a triple
// pattern subject.
func (p *Parser) startsTriple() bool {
	switch p.tok.kind {
	case tVar, tIRI, tPName, tBlank, tInt, tDec, tDbl, tString:
		return true
	case tPunct:
		return p.tok.text == "[" || p.tok.text == "("
	case tWord:
		return p.tok.isWord("true") || p.tok.isWord("false")
	}
	return false
}

// nodeOrSyntacticSugar parses a subject/object node, expanding blank
// node property lists and collections into extra triple patterns.
func (p *Parser) nodeOrSyntacticSugar(bgp *BGP) (Node, error) {
	switch {
	case p.tok.isPunct("["):
		if err := p.advance(); err != nil {
			return Node{}, err
		}
		node := NewTermNode(p.freshBlank())
		if !p.tok.isPunct("]") {
			if err := p.predicateObjectList(bgp, node); err != nil {
				return Node{}, err
			}
		}
		if err := p.expectPunct("]"); err != nil {
			return Node{}, err
		}
		return node, nil
	case p.tok.isPunct("("):
		if err := p.advance(); err != nil {
			return Node{}, err
		}
		var items []Node
		for !p.tok.isPunct(")") {
			if p.tok.kind == tEOF {
				return Node{}, p.errorf("unterminated collection")
			}
			item, err := p.nodeOrSyntacticSugar(bgp)
			if err != nil {
				return Node{}, err
			}
			items = append(items, item)
		}
		if err := p.advance(); err != nil {
			return Node{}, err
		}
		if len(items) == 0 {
			return NewTermNode(rdf.RDFNil), nil
		}
		head := NewTermNode(p.freshBlank())
		cur := head
		for i, item := range items {
			bgp.Triples = append(bgp.Triples, TriplePattern{S: cur, Path: PathIRI{IRI: rdf.RDFFirst}, O: item})
			if i == len(items)-1 {
				bgp.Triples = append(bgp.Triples, TriplePattern{S: cur, Path: PathIRI{IRI: rdf.RDFRest}, O: NewTermNode(rdf.RDFNil)})
			} else {
				next := NewTermNode(p.freshBlank())
				bgp.Triples = append(bgp.Triples, TriplePattern{S: cur, Path: PathIRI{IRI: rdf.RDFRest}, O: next})
				cur = next
			}
		}
		return head, nil
	default:
		return p.nodeTerm(true)
	}
}

// nodeTerm parses a plain node: variable (if allowed), IRI, literal or
// blank node label. Its term rules are Turtle's too: the Turtle reader
// parses every term but blanks, lists and collections here.
func (p *Parser) nodeTerm(allowVar bool) (Node, error) {
	switch p.tok.kind {
	case tVar:
		if !allowVar {
			return Node{}, p.errorf("variable not allowed here")
		}
		n := NewVarNode(p.tok.text)
		return n, p.advance()
	case tIRI, tPName:
		iri, err := p.iriRef()
		return NewTermNode(iri), err
	case tBlank:
		return NewTermNode(rdf.Blank("u" + p.tok.text)), p.advance()
	case tInt, tDec, tDbl:
		t, err := p.number("")
		return NewTermNode(t), err
	case tString:
		t, err := p.literalTail(p.tok.text)
		if err != nil {
			return Node{}, err
		}
		return NewTermNode(t), nil
	case tWord:
		switch {
		case p.tok.isWord("true"):
			return NewTermNode(rdf.Boolean(true)), p.advance()
		case p.tok.isWord("false"):
			return NewTermNode(rdf.Boolean(false)), p.advance()
		}
	case tPunct:
		if p.atSignedNumber() {
			sign := p.tok.text
			if err := p.advance(); err != nil {
				return Node{}, err
			}
			t, err := p.number(sign)
			return NewTermNode(t), err
		}
	}
	return Node{}, p.errorf("expected RDF term, found %s", p.tok)
}

// atSignedNumber reports whether the token is a sign that touches the
// digits after it, which makes one signed number of the two (SPARQL's
// INTEGER_POSITIVE and INTEGER_NEGATIVE, Turtle's INTEGER): "<p> +4"
// is a predicate and an object, not a path repeated.
func (p *Parser) atSignedNumber() bool {
	return (p.tok.isPunct("-") || p.tok.isPunct("+")) && unicode.IsDigit(p.lex.peek())
}

// number parses the numeric literal token, with sign ("", "-" or "+")
// in front: an integer is an xsd:integer, a decimal or a double an
// xsd:double.
func (p *Parser) number(sign string) (rdf.Term, error) {
	text := p.tok.text
	if sign != "" {
		text = sign + text
	}
	if p.tok.kind == tInt {
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", text)
		}
		return rdf.Integer(v), p.advance()
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, p.errorf("bad number %q", text)
	}
	return rdf.Float(v), p.advance()
}

// literalTail consumes optional @lang / ^^datatype after a string.
func (p *Parser) literalTail(val string) (rdf.Term, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch {
	case p.tok.kind == tLang:
		lang := p.tok.text
		if lang == "" {
			return nil, p.errorf("empty language tag")
		}
		return rdf.String{Val: val, Lang: lang}, p.advance()
	case p.tok.isPunct("^^"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		dt, err := p.iriRef()
		if err != nil {
			return nil, err
		}
		return p.typedLiteral(val, dt)
	default:
		return rdf.String{Val: val}, nil
	}
}

const xsdNS = "http://www.w3.org/2001/XMLSchema#"

// typedLiteral maps a typed literal to its term, one rule for both
// syntaxes: xsd:integer, xsd:int and xsd:long are integers,
// xsd:double, xsd:decimal and xsd:float doubles, and xsd:boolean,
// xsd:dateTime and xsd:string their native terms; any other datatype
// is kept verbatim.
func (p *Parser) typedLiteral(val string, dt rdf.IRI) (rdf.Term, error) {
	switch dt {
	case rdf.XSDInteger, xsdNS + "int", xsdNS + "long":
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return nil, p.errorf("bad xsd:integer literal %q", val)
		}
		return rdf.Integer(v), nil
	case rdf.XSDDouble, rdf.XSDDecimal, xsdNS + "float":
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, p.errorf("bad numeric literal %q", val)
		}
		return rdf.Float(v), nil
	case rdf.XSDBoolean:
		switch strings.TrimSpace(val) {
		case "true", "1":
			return rdf.Boolean(true), nil
		case "false", "0":
			return rdf.Boolean(false), nil
		}
		return nil, p.errorf("bad xsd:boolean literal %q", val)
	case rdf.XSDDateTime:
		t, err := time.Parse(time.RFC3339, strings.TrimSpace(val))
		if err != nil {
			return nil, p.errorf("bad xsd:dateTime literal %q", val)
		}
		return rdf.DateTime{T: t}, nil
	case rdf.XSDString:
		return rdf.String{Val: val}, nil
	default:
		return rdf.Typed{Lexical: val, Datatype: dt}, nil
	}
}

func (p *Parser) predicateObjectList(bgp *BGP, subj Node) error {
	for {
		path, err := p.path()
		if err != nil {
			return err
		}
		for {
			obj, err := p.nodeOrSyntacticSugar(bgp)
			if err != nil {
				return err
			}
			bgp.Triples = append(bgp.Triples, TriplePattern{S: subj, Path: path, O: obj})
			if p.tok.isPunct(",") {
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if p.tok.isPunct(";") {
			if err := p.advance(); err != nil {
				return err
			}
			// Tolerate trailing ';' before terminators.
			if p.tok.isPunct(".") || p.tok.isPunct("}") || p.tok.isPunct("]") || p.tok.kind == tEOF {
				return nil
			}
			continue
		}
		return nil
	}
}

// --- property paths (§3.4) ---

func (p *Parser) path() (Path, error) {
	if p.tok.kind == tVar {
		pv := PathVar{Name: p.tok.text}
		return pv, p.advance()
	}
	return p.pathAlternative()
}

func (p *Parser) pathAlternative() (Path, error) {
	left, err := p.pathSequence()
	if err != nil {
		return nil, err
	}
	for p.tok.isPunct("|") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.pathSequence()
		if err != nil {
			return nil, err
		}
		left = PathAlt{L: left, R: right}
	}
	return left, nil
}

func (p *Parser) pathSequence() (Path, error) {
	left, err := p.pathEltOrInverse()
	if err != nil {
		return nil, err
	}
	for p.tok.isPunct("/") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.pathEltOrInverse()
		if err != nil {
			return nil, err
		}
		left = PathSeq{L: left, R: right}
	}
	return left, nil
}

func (p *Parser) pathEltOrInverse() (Path, error) {
	if p.tok.isPunct("^") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.pathElt()
		if err != nil {
			return nil, err
		}
		return PathInverse{P: inner}, nil
	}
	return p.pathElt()
}

func (p *Parser) pathElt() (Path, error) {
	prim, err := p.pathPrimary()
	if err != nil {
		return nil, err
	}
	switch {
	case p.tok.isPunct("*"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return PathRepeat{P: prim, Min: 0, Unbounded: true}, nil
	case p.tok.isPunct("+") && !p.atSignedNumber():
		if err := p.advance(); err != nil {
			return nil, err
		}
		return PathRepeat{P: prim, Min: 1, Unbounded: true}, nil
	case p.tok.isPunct("?"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return PathRepeat{P: prim, Min: 0, Unbounded: false}, nil
	}
	return prim, nil
}

func (p *Parser) pathPrimary() (Path, error) {
	switch {
	case p.tok.isPunct("!"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.negatedPropertySet()
	case p.tok.isWord("a"):
		pp := PathIRI{IRI: rdf.RDFType}
		return pp, p.advance()
	case p.tok.kind == tIRI, p.tok.kind == tPName:
		iri, err := p.iriRef()
		return PathIRI{IRI: iri}, err
	case p.tok.isPunct("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.pathAlternative()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, p.errorf("expected property path, found %s", p.tok)
	}
}

// negatedPropertySet parses the body of !iri or !(iri|^iri|...).
func (p *Parser) negatedPropertySet() (Path, error) {
	out := PathNegated{}
	one := func() error {
		inv := false
		if p.tok.isPunct("^") {
			inv = true
			if err := p.advance(); err != nil {
				return err
			}
		}
		var iri rdf.IRI
		if p.tok.isWord("a") {
			iri = rdf.RDFType
			if err := p.advance(); err != nil {
				return err
			}
		} else {
			var err error
			iri, err = p.iriRef()
			if err != nil {
				return err
			}
		}
		if inv {
			out.Inv = append(out.Inv, iri)
		} else {
			out.Fwd = append(out.Fwd, iri)
		}
		return nil
	}
	if p.tok.isPunct("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			if err := one(); err != nil {
				return nil, err
			}
			if p.tok.isPunct("|") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := one(); err != nil {
		return nil, err
	}
	return out, nil
}

// templateBlock parses a { triples } template (CONSTRUCT, updates).
// Property paths are not allowed; predicates must be IRIs or vars.
func (p *Parser) templateBlock() ([]TriplePattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	return p.templateBody()
}

// templateBody parses a template's triples through its closing '}'.
func (p *Parser) templateBody() ([]TriplePattern, error) {
	bgp := &BGP{}
	for !p.tok.isPunct("}") {
		if p.tok.kind == tEOF {
			return nil, p.errorf("unterminated template")
		}
		if p.tok.isPunct(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.triplesBlock(bgp); err != nil {
			return nil, err
		}
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for _, tp := range bgp.Triples {
		switch tp.Path.(type) {
		case PathIRI, PathVar:
		default:
			return nil, fmt.Errorf("sciSPARQL: property paths are not allowed in templates")
		}
	}
	return bgp.Triples, nil
}
