package sparql

import (
	"scisparql/internal/rdf"
)

// insertStmt parses INSERT DATA { ... } or INSERT { tpl } WHERE { ... }.
func (p *Parser) insertStmt() (Statement, error) {
	if err := p.expectWord("INSERT"); err != nil {
		return nil, err
	}
	if p.acceptWord("DATA") {
		graph, triples, err := p.quadData()
		if err != nil {
			return nil, err
		}
		return &InsertData{Graph: graph, Triples: triples}, nil
	}
	tpl, err := p.templateBlock()
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("WHERE"); err != nil {
		return nil, err
	}
	g, err := p.groupGraphPattern()
	if err != nil {
		return nil, err
	}
	return &Modify{InsertTpl: tpl, Where: g}, nil
}

// deleteStmt parses DELETE DATA, DELETE WHERE, or DELETE {tpl}
// [INSERT {tpl}] WHERE {...}.
func (p *Parser) deleteStmt() (Statement, error) {
	if err := p.expectWord("DELETE"); err != nil {
		return nil, err
	}
	if p.acceptWord("DATA") {
		graph, triples, err := p.quadData()
		if err != nil {
			return nil, err
		}
		return &DeleteData{Graph: graph, Triples: triples}, nil
	}
	if p.acceptWord("WHERE") {
		// DELETE WHERE { pattern }: the pattern doubles as template.
		g, err := p.groupGraphPattern()
		if err != nil {
			return nil, err
		}
		tpl, err := groupAsTemplate(g)
		if err != nil {
			return nil, err
		}
		return &Modify{DeleteTpl: tpl, Where: g}, nil
	}
	tpl, err := p.templateBlock()
	if err != nil {
		return nil, err
	}
	m := &Modify{DeleteTpl: tpl}
	if p.acceptWord("INSERT") {
		ins, err := p.templateBlock()
		if err != nil {
			return nil, err
		}
		m.InsertTpl = ins
	}
	if err := p.expectWord("WHERE"); err != nil {
		return nil, err
	}
	g, err := p.groupGraphPattern()
	if err != nil {
		return nil, err
	}
	m.Where = g
	return m, nil
}

// withModify parses WITH <g> DELETE/INSERT ... WHERE ...
func (p *Parser) withModify() (Statement, error) {
	if err := p.expectWord("WITH"); err != nil {
		return nil, err
	}
	graph, err := p.iriRef()
	if err != nil {
		return nil, err
	}
	var st Statement
	switch {
	case p.tok.isWord("DELETE"):
		st, err = p.deleteStmt()
	case p.tok.isWord("INSERT"):
		st, err = p.insertStmt()
	default:
		return nil, p.errorf("expected DELETE or INSERT after WITH")
	}
	if err != nil {
		return nil, err
	}
	m, ok := st.(*Modify)
	if !ok {
		return nil, p.errorf("WITH requires a template update, not DATA")
	}
	m.Graph = graph
	return m, nil
}

// groupAsTemplate extracts the plain triple patterns of a group for
// DELETE WHERE.
func groupAsTemplate(g *Group) ([]TriplePattern, error) {
	var out []TriplePattern
	for _, el := range g.Elems {
		bgp, ok := el.(BGP)
		if !ok {
			return nil, errNonTemplate
		}
		for _, tp := range bgp.Triples {
			switch tp.Path.(type) {
			case PathIRI, PathVar:
			default:
				return nil, errNonTemplate
			}
			out = append(out, tp)
		}
	}
	return out, nil
}

var errNonTemplate = fmtError("sciSPARQL: DELETE WHERE pattern must contain only plain triples")

type fmtError string

func (e fmtError) Error() string { return string(e) }

// quadData parses { triples } or { GRAPH <g> { triples } } for
// INSERT/DELETE DATA.
func (p *Parser) quadData() (rdf.IRI, []TriplePattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return "", nil, err
	}
	var graph rdf.IRI
	var triples []TriplePattern
	var err error
	if p.acceptWord("GRAPH") {
		if graph, err = p.iriRef(); err != nil {
			return "", nil, err
		}
		if triples, err = p.templateBlock(); err == nil {
			err = p.expectPunct("}")
		}
	} else {
		triples, err = p.templateBody()
	}
	if err != nil {
		return "", nil, err
	}
	for _, tp := range triples {
		if tp.S.IsVar() || tp.O.IsVar() {
			return "", nil, p.errorf("variables are not allowed in DATA blocks")
		}
		if _, ok := tp.Path.(PathIRI); !ok {
			return "", nil, p.errorf("predicates in DATA blocks must be IRIs")
		}
	}
	return graph, triples, nil
}

// loadStmt parses LOAD <source> [INTO GRAPH <g>].
func (p *Parser) loadStmt() (Statement, error) {
	if err := p.expectWord("LOAD"); err != nil {
		return nil, err
	}
	if p.tok.kind != tIRI && p.tok.kind != tString {
		return nil, p.errorf("expected file or IRI after LOAD, found %s", p.tok)
	}
	src := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	ld := &Load{Source: src}
	if p.acceptWord("INTO") {
		if err := p.expectWord("GRAPH"); err != nil {
			return nil, err
		}
		g, err := p.iriRef()
		if err != nil {
			return nil, err
		}
		ld.Graph = g
	}
	return ld, nil
}

// clearStmt parses CLEAR DEFAULT | CLEAR GRAPH <g>.
func (p *Parser) clearStmt() (Statement, error) {
	if err := p.expectWord("CLEAR"); err != nil {
		return nil, err
	}
	if p.acceptWord("DEFAULT") {
		return &Clear{Default: true}, nil
	}
	if err := p.expectWord("GRAPH"); err != nil {
		return nil, err
	}
	g, err := p.iriRef()
	if err != nil {
		return nil, err
	}
	return &Clear{Graph: g}, nil
}

// defineStmt parses the SciSPARQL definitions (§4.2):
//
//	DEFINE FUNCTION name(?p1 ?p2) AS expr-or-select
//	DEFINE AGGREGATE name(?b) AS expr
func (p *Parser) defineStmt() (Statement, error) {
	if err := p.expectWord("DEFINE"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptWord("FUNCTION"):
		name, err := p.functionName()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var params []string
		for p.tok.kind == tVar {
			params = append(params, p.tok.text)
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.isPunct(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectWord("AS"); err != nil {
			return nil, err
		}
		def := &DefineFunction{Name: name, Params: params}
		if p.tok.isWord("SELECT") {
			q, err := p.query()
			if err != nil {
				return nil, err
			}
			def.Body = q
		} else {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			def.Expr = e
		}
		return def, nil
	case p.acceptWord("AGGREGATE"):
		name, err := p.functionName()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.tok.kind != tVar {
			return nil, p.errorf("expected aggregate parameter variable")
		}
		param := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectWord("AS"); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		return &DefineAggregate{Name: name, Param: param, Expr: e}, nil
	default:
		return nil, p.errorf("expected FUNCTION or AGGREGATE after DEFINE")
	}
}

// functionName accepts an IRI, prefixed name, or bare identifier.
func (p *Parser) functionName() (string, error) {
	switch p.tok.kind {
	case tIRI:
		name := string(p.resolveIRI(p.tok.text))
		return name, p.advance()
	case tPName:
		iri, err := p.expandPName(p.tok.text)
		if err != nil {
			return "", err
		}
		return string(iri), p.advance()
	case tWord:
		name := p.tok.text
		return name, p.advance()
	default:
		return "", p.errorf("expected function name, found %s", p.tok)
	}
}
