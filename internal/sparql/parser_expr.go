package sparql

import (
	"strings"

	"scisparql/internal/rdf"
)

// constraint parses a FILTER argument: a bracketted expression, a
// built-in call, or (NOT) EXISTS.
func (p *Parser) constraint() (Expression, error) {
	switch {
	case p.tok.isPunct("("):
		return p.bracketted()
	case p.tok.isWord("EXISTS"), p.tok.isWord("NOT"):
		return p.existsExpr()
	case p.tok.kind == tWord:
		return p.callOrKeywordExpr()
	default:
		return nil, p.errorf("expected filter constraint, found %s", p.tok)
	}
}

// bracketted parses "( expression )".
func (p *Parser) bracketted() (Expression, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	e, err := p.expression()
	if err != nil {
		return nil, err
	}
	return e, p.expectPunct(")")
}

func (p *Parser) existsExpr() (Expression, error) {
	not := false
	if p.acceptWord("NOT") {
		not = true
	}
	if err := p.expectWord("EXISTS"); err != nil {
		return nil, err
	}
	g, err := p.groupGraphPattern()
	if err != nil {
		return nil, err
	}
	return EExists{Not: not, Group: g}, nil
}

// expression parses a full SciSPARQL expression (logical OR level).
func (p *Parser) expression() (Expression, error) {
	left, err := p.andExpression()
	if err != nil {
		return nil, err
	}
	for p.tok.isPunct("||") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.andExpression()
		if err != nil {
			return nil, err
		}
		left = EBin{Op: "||", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) andExpression() (Expression, error) {
	left, err := p.relational()
	if err != nil {
		return nil, err
	}
	for p.tok.isPunct("&&") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.relational()
		if err != nil {
			return nil, err
		}
		left = EBin{Op: "&&", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) relational() (Expression, error) {
	left, err := p.additive()
	if err != nil {
		return nil, err
	}
	switch {
	case p.tok.isPunct("="), p.tok.isPunct("!="), p.tok.isPunct("<"),
		p.tok.isPunct("<="), p.tok.isPunct(">"), p.tok.isPunct(">="):
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.additive()
		if err != nil {
			return nil, err
		}
		return EBin{Op: op, L: left, R: right}, nil
	case p.tok.isWord("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		list, err := p.expressionList()
		if err != nil {
			return nil, err
		}
		return EIn{E: left, List: list}, nil
	case p.tok.isWord("NOT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectWord("IN"); err != nil {
			return nil, err
		}
		list, err := p.expressionList()
		if err != nil {
			return nil, err
		}
		return EIn{Not: true, E: left, List: list}, nil
	}
	return left, nil
}

func (p *Parser) expressionList() ([]Expression, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var out []Expression
	for {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if p.tok.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	return out, p.expectPunct(")")
}

func (p *Parser) additive() (Expression, error) {
	left, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.isPunct("+") || p.tok.isPunct("-") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.multiplicative()
		if err != nil {
			return nil, err
		}
		left = EBin{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) multiplicative() (Expression, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.tok.isPunct("*") || p.tok.isPunct("/") || p.tok.isWord("MOD") {
		op := p.tok.text
		if p.tok.isWord("MOD") {
			op = "MOD"
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.unary()
		if err != nil {
			return nil, err
		}
		left = EBin{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) unary() (Expression, error) {
	switch {
	case p.tok.isPunct("!"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return EUn{Op: "!", E: e}, nil
	case p.tok.isPunct("-"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return EUn{Op: "-", E: e}, nil
	case p.tok.isPunct("+"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.unary()
	}
	return p.postfix()
}

// postfix parses a primary expression followed by any number of array
// dereference brackets (§4.1.1).
func (p *Parser) postfix() (Expression, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.tok.isPunct("[") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var subs []Subscript
		for {
			s, err := p.subscript()
			if err != nil {
				return nil, err
			}
			subs = append(subs, s)
			if p.tok.isPunct(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		e = ESubscript{Base: e, Subs: subs}
	}
	return e, nil
}

// subscript parses one dimension subscript: expr, or Matlab-style
// ranges lo:hi / lo:step:hi with optional bounds (':' alone selects the
// whole dimension).
func (p *Parser) subscript() (Subscript, error) {
	var first Expression
	if !p.tok.isPunct(":") {
		e, err := p.expression()
		if err != nil {
			return Subscript{}, err
		}
		first = e
	}
	if !p.tok.isPunct(":") {
		if first == nil {
			return Subscript{}, p.errorf("expected subscript")
		}
		return Subscript{Single: true, Index: first}, nil
	}
	if err := p.advance(); err != nil { // consume ':'
		return Subscript{}, err
	}
	var second Expression
	if !p.tok.isPunct(":") && !p.tok.isPunct(",") && !p.tok.isPunct("]") {
		e, err := p.expression()
		if err != nil {
			return Subscript{}, err
		}
		second = e
	}
	if p.tok.isPunct(":") {
		// lo : step : hi
		if err := p.advance(); err != nil {
			return Subscript{}, err
		}
		var third Expression
		if !p.tok.isPunct(",") && !p.tok.isPunct("]") {
			e, err := p.expression()
			if err != nil {
				return Subscript{}, err
			}
			third = e
		}
		return Subscript{Lo: first, Step: second, Hi: third}, nil
	}
	return Subscript{Lo: first, Hi: second}, nil
}

// aggregate function names.
func isAggregateName(s string) bool {
	switch strings.ToUpper(s) {
	case "COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT":
		return true
	}
	return false
}

func (p *Parser) primary() (Expression, error) {
	switch p.tok.kind {
	case tPunct:
		switch p.tok.text {
		case "(":
			return p.bracketted()
		case "_":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return EHole{}, nil
		}
	case tVar:
		e := EVar{Name: p.tok.text}
		return e, p.advance()
	case tInt, tDec, tDbl:
		t, err := p.number("")
		return ELit{Term: t}, err
	case tString:
		t, err := p.literalTail(p.tok.text)
		if err != nil {
			return nil, err
		}
		return ELit{Term: t}, nil
	case tIRI, tPName:
		iri, err := p.iriRef()
		if err != nil {
			return nil, err
		}
		if p.tok.isPunct("(") {
			return p.callArgs(string(iri))
		}
		return ELit{Term: iri}, nil
	case tWord:
		return p.callOrKeywordExpr()
	}
	return nil, p.errorf("expected expression, found %s", p.tok)
}

// callOrKeywordExpr handles bare words in expression position: boolean
// literals, EXISTS forms, aggregates, and built-in function calls.
func (p *Parser) callOrKeywordExpr() (Expression, error) {
	switch {
	case p.tok.isWord("true"):
		return ELit{Term: rdf.Boolean(true)}, p.advance()
	case p.tok.isWord("false"):
		return ELit{Term: rdf.Boolean(false)}, p.advance()
	case p.tok.isWord("EXISTS"), p.tok.isWord("NOT"):
		return p.existsExpr()
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if !p.tok.isPunct("(") {
		return nil, p.errorf("expected '(' after %q", name)
	}
	if isAggregateName(name) {
		return p.aggregateCall(strings.ToUpper(name))
	}
	return p.callArgs(strings.ToLower(name))
}

func (p *Parser) aggregateCall(fn string) (Expression, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	agg := EAgg{Func: fn}
	if p.acceptWord("DISTINCT") {
		agg.Distinct = true
	}
	if p.tok.isPunct("*") {
		if fn != "COUNT" {
			return nil, p.errorf("only COUNT accepts '*'")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		agg.Arg = e
	}
	// GROUP_CONCAT(expr ; SEPARATOR = "sep")
	if p.tok.isPunct(";") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectWord("SEPARATOR"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		if p.tok.kind != tString {
			return nil, p.errorf("expected separator string")
		}
		agg.Separator = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return agg, nil
}

// callArgs parses "( args )" for a named function. A call containing
// `_` placeholders denotes a lexical closure (§4.3); a call with no
// parentheses content is a nullary call.
func (p *Parser) callArgs(name string) (Expression, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	call := ECall{Name: name}
	if !p.tok.isPunct(")") {
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, e)
			if p.tok.isPunct(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return call, nil
}
