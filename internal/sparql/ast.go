// Package sparql implements the Scientific SPARQL (SciSPARQL) query
// language: a superset of W3C SPARQL 1.1 (dissertation chapter 3)
// extended with array dereference syntax, array expressions,
// parameterized functional views, lexical closures and second-order
// functions (chapter 4), plus the SPARQL Update statements SSDM
// supports.
//
// The package contains the abstract syntax tree and a recursive-
// descent parser; translation to executable algebra lives in package
// engine.
package sparql

import (
	"fmt"
	"strings"

	"scisparql/internal/rdf"
)

// Form distinguishes the query forms.
type Form uint8

const (
	// FormSelect is SELECT: rows of bindings.
	FormSelect Form = iota
	// FormAsk is ASK: whether any solution exists.
	FormAsk
	// FormConstruct is CONSTRUCT: a graph built from a template.
	FormConstruct
	// FormDescribe is DESCRIBE: the triples about resources.
	FormDescribe
)

// Query is a parsed SciSPARQL query.
type Query struct {
	Base string

	Form     Form
	Distinct bool
	Reduced  bool
	Star     bool
	Items    []SelectItem // projection (empty with Star)

	ConstructTemplate []TriplePattern
	DescribeTerms     []Expression

	From      []rdf.IRI
	FromNamed []rdf.IRI

	Where *Group

	GroupBy []Expression
	Having  []Expression
	OrderBy []OrderCond
	Limit   int // -1 = none
	Offset  int
}

// SelectItem is one projection: a plain variable or (expr AS ?var).
type SelectItem struct {
	Var  string
	Expr Expression // nil for a plain variable
}

// OrderCond is one ORDER BY criterion.
type OrderCond struct {
	Expr Expression
	Desc bool
}

// Group is a group graph pattern: a conjunction of elements.
type Group struct {
	Elems []Element
}

// Element is any member of a group graph pattern.
type Element interface{ isElement() }

// BGP is a basic graph pattern: a conjunctive block of triple
// patterns.
type BGP struct {
	Triples []TriplePattern
}

// Optional is OPTIONAL { ... }.
type Optional struct {
	Group *Group
}

// Union is { A } UNION { B } UNION ...
type Union struct {
	Branches []*Group
}

// Minus is MINUS { ... }.
type Minus struct {
	Group *Group
}

// Filter is FILTER ( expr ).
type Filter struct {
	Cond Expression
}

// Bind is BIND ( expr AS ?var ).
type Bind struct {
	Expr Expression
	Var  string
}

// GraphClause is GRAPH <g> { ... } or GRAPH ?g { ... }.
type GraphClause struct {
	Name  rdf.Term // nil when Var is set
	Var   string
	Group *Group
}

// InlineData is a VALUES block.
type InlineData struct {
	Vars []string
	Rows [][]rdf.Term // nil entry = UNDEF
}

// SubGroup nests a group (braces inside braces).
type SubGroup struct {
	Group *Group
}

// SubSelect is a nested SELECT query inside a group graph pattern
// (SPARQL 1.1 subqueries): evaluated bottom-up, its projected
// variables join with the enclosing pattern.
type SubSelect struct {
	Query *Query
}

func (BGP) isElement()         {}
func (Optional) isElement()    {}
func (Union) isElement()       {}
func (Minus) isElement()       {}
func (Filter) isElement()      {}
func (Bind) isElement()        {}
func (GraphClause) isElement() {}
func (InlineData) isElement()  {}
func (SubGroup) isElement()    {}
func (SubSelect) isElement()   {}

// Node is a subject/object position in a triple pattern: a variable or
// a ground term.
type Node struct {
	Var  string   // set when the node is a variable
	Term rdf.Term // set when the node is ground
}

// IsVar reports whether the node is a variable.
func (n Node) IsVar() bool { return n.Var != "" }

// String renders the node as SPARQL text: ?name or the term.
func (n Node) String() string {
	if n.IsVar() {
		return "?" + n.Var
	}
	if n.Term == nil {
		return "<nil>"
	}
	return n.Term.String()
}

// NewVarNode makes a variable node.
func NewVarNode(name string) Node { return Node{Var: name} }

// NewTermNode makes a ground node.
func NewTermNode(t rdf.Term) Node { return Node{Term: t} }

// TriplePattern is one triple pattern; the predicate position is a
// property path (a trivial path for a plain IRI, or a variable).
type TriplePattern struct {
	S    Node
	Path Path
	O    Node
}

// Path is a property path expression (§3.4).
type Path interface {
	isPath()
	String() string
}

// PathIRI is a single predicate IRI.
type PathIRI struct{ IRI rdf.IRI }

// PathVar is a variable in predicate position (not a W3C path, but
// plain SPARQL allows predicate variables).
type PathVar struct{ Name string }

// PathInverse is ^p.
type PathInverse struct{ P Path }

// PathSeq is p1 / p2.
type PathSeq struct{ L, R Path }

// PathAlt is p1 | p2.
type PathAlt struct{ L, R Path }

// PathRepeat is p*, p+ or p? depending on Min/Unbounded.
type PathRepeat struct {
	P         Path
	Min       int  // 0 for * and ?, 1 for +
	Unbounded bool // false only for ?
}

// PathNegated is a negated property set !iri or !(iri1|^iri2|...):
// it matches any edge whose predicate is not in the forward set
// (respectively, any reverse edge whose predicate is not in the
// inverse set).
type PathNegated struct {
	Fwd []rdf.IRI
	Inv []rdf.IRI
}

func (PathIRI) isPath()     {}
func (PathVar) isPath()     {}
func (PathInverse) isPath() {}
func (PathSeq) isPath()     {}
func (PathAlt) isPath()     {}
func (PathRepeat) isPath()  {}
func (PathNegated) isPath() {}

// String renders the predicate IRI.
func (p PathIRI) String() string { return p.IRI.String() }

// String renders the predicate variable as ?name.
func (p PathVar) String() string { return "?" + p.Name }

// String renders the inverse path as ^path.
func (p PathInverse) String() string { return "^" + p.P.String() }

// String renders the sequence as (l/r).
func (p PathSeq) String() string { return "(" + p.L.String() + "/" + p.R.String() + ")" }

// String renders the alternative as (l|r).
func (p PathAlt) String() string { return "(" + p.L.String() + "|" + p.R.String() + ")" }

// String renders the negated property set as !(iri|^iri…).
func (p PathNegated) String() string {
	parts := make([]string, 0, len(p.Fwd)+len(p.Inv))
	for _, iri := range p.Fwd {
		parts = append(parts, iri.String())
	}
	for _, iri := range p.Inv {
		parts = append(parts, "^"+iri.String())
	}
	return "!(" + strings.Join(parts, "|") + ")"
}

// String renders the path with its repetition suffix: *, + or ?.
func (p PathRepeat) String() string {
	suffix := "?"
	if p.Unbounded {
		if p.Min == 0 {
			suffix = "*"
		} else {
			suffix = "+"
		}
	}
	return p.P.String() + suffix
}

// Expression is a SciSPARQL expression.
type Expression interface {
	isExpr()
	String() string
}

// EVar references a variable.
type EVar struct{ Name string }

// ELit is a constant term.
type ELit struct{ Term rdf.Term }

// EBin is a binary operation: || && = != < <= > >= + - * / ^ MOD.
type EBin struct {
	Op   string
	L, R Expression
}

// EUn is unary ! or -.
type EUn struct {
	Op string
	E  Expression
}

// ECall is a function application: built-in, user-defined (DEFINE
// FUNCTION), or foreign. Placeholder arguments (EHole) turn the call
// into a lexical closure value (§4.3).
type ECall struct {
	Name string // lowercase builtin name or expanded IRI of a UDF
	Args []Expression
}

// EFuncRef is a bare reference to a named function, usable as a
// function-valued argument to second-order functions.
type EFuncRef struct{ Name string }

// EHole is the placeholder `_` inside a call, marking the parameter
// position a second-order function will supply (closure formation).
type EHole struct{}

// EAgg is an aggregate application inside SELECT/HAVING/ORDER BY.
type EAgg struct {
	Func      string // COUNT SUM MIN MAX AVG SAMPLE GROUP_CONCAT
	Distinct  bool
	Arg       Expression // nil for COUNT(*)
	Separator string     // GROUP_CONCAT
}

// EExists is EXISTS { ... } / NOT EXISTS { ... }.
type EExists struct {
	Not   bool
	Group *Group
}

// EIn is expr IN (list) / NOT IN.
type EIn struct {
	Not  bool
	E    Expression
	List []Expression
}

// ESubscript is the SciSPARQL array dereference ?a[...] (§4.1.1).
// Subscripts are 1-based, ranges inclusive, Matlab style:
// lo:hi or lo:step:hi; each bound may be omitted.
type ESubscript struct {
	Base Expression
	Subs []Subscript
}

// Subscript is one dimension's subscript.
type Subscript struct {
	Single bool
	Index  Expression // when Single
	Lo     Expression // nil = from start
	Hi     Expression // nil = to end
	Step   Expression // nil = 1
}

func (EVar) isExpr()       {}
func (ELit) isExpr()       {}
func (EBin) isExpr()       {}
func (EUn) isExpr()        {}
func (ECall) isExpr()      {}
func (EFuncRef) isExpr()   {}
func (EHole) isExpr()      {}
func (EAgg) isExpr()       {}
func (EExists) isExpr()    {}
func (EIn) isExpr()        {}
func (ESubscript) isExpr() {}

// String renders the variable as ?name.
func (e EVar) String() string { return "?" + e.Name }

// String renders the constant term.
func (e ELit) String() string { return e.Term.String() }

// String renders the binary operation, parenthesized.
func (e EBin) String() string { return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")" }

// String renders the unary operation as op followed by its operand.
func (e EUn) String() string { return e.Op + e.E.String() }

// String renders the call as name(args).
func (e ECall) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

// String renders the function reference by its name.
func (e EFuncRef) String() string { return e.Name }

// String renders the closure hole as _.
func (EHole) String() string { return "_" }

// String renders the aggregate call, DISTINCT and * included.
func (e EAgg) String() string {
	arg := "*"
	if e.Arg != nil {
		arg = e.Arg.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return e.Func + "(" + d + arg + ")"
}

// String renders the EXISTS test with its pattern elided.
func (e EExists) String() string {
	if e.Not {
		return "NOT EXISTS {...}"
	}
	return "EXISTS {...}"
}

// String renders the membership test as e IN (…) or e NOT IN (…).
func (e EIn) String() string {
	op := "IN"
	if e.Not {
		op = "NOT IN"
	}
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.String()
	}
	return e.E.String() + " " + op + " (" + strings.Join(items, ", ") + ")"
}

// String renders the array dereference as base[subscripts].
func (e ESubscript) String() string {
	var sb strings.Builder
	sb.WriteString(e.Base.String())
	sb.WriteByte('[')
	for i, s := range e.Subs {
		if i > 0 {
			sb.WriteByte(',')
		}
		if s.Single {
			sb.WriteString(s.Index.String())
			continue
		}
		if s.Lo != nil {
			sb.WriteString(s.Lo.String())
		}
		sb.WriteByte(':')
		if s.Step != nil {
			sb.WriteString(s.Step.String())
			sb.WriteByte(':')
		}
		if s.Hi != nil {
			sb.WriteString(s.Hi.String())
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

// --- Updates and directives ---

// Statement is a parsed SciSPARQL request: either a Query or an
// Update-family statement.
type Statement interface{ isStatement() }

func (*Query) isStatement() {}

// InsertData is INSERT DATA { triples }.
type InsertData struct {
	Graph   rdf.IRI // "" = default graph
	Triples []TriplePattern
}

// DeleteData is DELETE DATA { triples }.
type DeleteData struct {
	Graph   rdf.IRI
	Triples []TriplePattern
}

// Modify is DELETE {tpl} INSERT {tpl} WHERE { ... } (either template
// may be absent).
type Modify struct {
	Graph     rdf.IRI
	DeleteTpl []TriplePattern
	InsertTpl []TriplePattern
	Where     *Group
}

// Load is LOAD <file-or-uri> [INTO GRAPH <g>].
type Load struct {
	Source string
	Graph  rdf.IRI
}

// Clear is CLEAR GRAPH <g> | CLEAR DEFAULT.
type Clear struct {
	Graph   rdf.IRI
	Default bool
}

// DefineFunction is the SciSPARQL functional-view definition (§4.2):
//
//	DEFINE FUNCTION ex:name(?a ?b) AS expression
//	DEFINE FUNCTION ex:name(?a) AS SELECT ?x WHERE { ... }
type DefineFunction struct {
	Name   string // expanded IRI or plain name
	Params []string
	Expr   Expression // exclusive with Body
	Body   *Query
}

// DefineAggregate declares a user aggregate over a bag of values,
// implemented by a functional view mapped over the group (§4.2).
type DefineAggregate struct {
	Name  string
	Param string
	Expr  Expression
}

func (*InsertData) isStatement()      {}
func (*DeleteData) isStatement()      {}
func (*Modify) isStatement()          {}
func (*Load) isStatement()            {}
func (*Clear) isStatement()           {}
func (*DefineFunction) isStatement()  {}
func (*DefineAggregate) isStatement() {}

// Vars collects the variables mentioned in a triple pattern.
func (tp TriplePattern) Vars() []string {
	var out []string
	if tp.S.IsVar() {
		out = append(out, tp.S.Var)
	}
	if pv, ok := tp.Path.(PathVar); ok {
		out = append(out, pv.Name)
	}
	if tp.O.IsVar() {
		out = append(out, tp.O.Var)
	}
	return out
}

// String renders the pattern as subject, path and object.
func (tp TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s", tp.S, tp.Path, tp.O)
}

// ExprVars collects variable names referenced by an expression
// (excluding those scoped inside EXISTS groups).
func ExprVars(e Expression, out map[string]bool) {
	switch v := e.(type) {
	case EVar:
		out[v.Name] = true
	case EBin:
		ExprVars(v.L, out)
		ExprVars(v.R, out)
	case EUn:
		ExprVars(v.E, out)
	case ECall:
		for _, a := range v.Args {
			ExprVars(a, out)
		}
	case EAgg:
		if v.Arg != nil {
			ExprVars(v.Arg, out)
		}
	case EIn:
		ExprVars(v.E, out)
		for _, a := range v.List {
			ExprVars(a, out)
		}
	case ESubscript:
		ExprVars(v.Base, out)
		for _, s := range v.Subs {
			for _, b := range []Expression{s.Index, s.Lo, s.Hi, s.Step} {
				if b != nil {
					ExprVars(b, out)
				}
			}
		}
	}
}

// HasAggregate reports whether the expression contains an aggregate
// application.
func HasAggregate(e Expression) bool {
	found := false
	walkExpr(e, func(x Expression) {
		if _, ok := x.(EAgg); ok {
			found = true
		}
	})
	return found
}

func walkExpr(e Expression, f func(Expression)) {
	if e == nil {
		return
	}
	f(e)
	switch v := e.(type) {
	case EBin:
		walkExpr(v.L, f)
		walkExpr(v.R, f)
	case EUn:
		walkExpr(v.E, f)
	case ECall:
		for _, a := range v.Args {
			walkExpr(a, f)
		}
	case EAgg:
		walkExpr(v.Arg, f)
	case EIn:
		walkExpr(v.E, f)
		for _, a := range v.List {
			walkExpr(a, f)
		}
	case ESubscript:
		walkExpr(v.Base, f)
		for _, s := range v.Subs {
			walkExpr(s.Index, f)
			walkExpr(s.Lo, f)
			walkExpr(s.Hi, f)
			walkExpr(s.Step, f)
		}
	}
}
