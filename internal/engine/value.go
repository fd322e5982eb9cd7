// Package engine is the SciSPARQL query processor of SSDM
// (dissertation chapter 5): it translates parsed queries into an
// executable algebra, normalizes and reorders conjunctions with a
// cost model over graph statistics, and evaluates them over
// RDF-with-Arrays datasets, including the array operations, functional
// views, lexical closures, second-order functions and foreign
// functions of chapter 4.
package engine

import (
	"fmt"
	"strings"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
)

// errExpr marks a SPARQL expression evaluation error (§3.6): inside
// FILTER it collapses to false, in projections to an unbound value.
type exprError struct{ msg string }

func (e *exprError) Error() string { return e.msg }

func errf(format string, args ...any) error {
	return &exprError{msg: fmt.Sprintf(format, args...)}
}

// EBV computes the SPARQL effective boolean value with the
// dissertation's extensions (§3.3.3): booleans are themselves; numbers
// are true when non-zero; strings when non-empty; IRIs, dates and
// typed literals are true; arrays are true (they are never empty);
// unbound (nil) is an error.
func EBV(t rdf.Term) (bool, error) {
	switch v := t.(type) {
	case nil:
		return false, errf("EBV of unbound value")
	case rdf.Boolean:
		return bool(v), nil
	case rdf.Integer:
		return v != 0, nil
	case rdf.Float:
		return v != 0, nil
	case rdf.String:
		return v.Val != "", nil
	case rdf.IRI, rdf.DateTime, rdf.Typed, rdf.Array:
		return true, nil
	case rdf.Blank:
		return true, nil
	default:
		return false, errf("EBV of %v", t)
	}
}

// Equals implements SPARQL value equality extended with array equality
// (§4.1.6).
func Equals(a, b rdf.Term) (bool, error) {
	if a == nil || b == nil {
		return false, errf("comparison with unbound value")
	}
	if an, ok := rdf.Numeric(a); ok {
		if bn, ok := rdf.Numeric(b); ok {
			return an.Float() == bn.Float(), nil
		}
		return false, nil
	}
	switch av := a.(type) {
	case rdf.Array:
		if bv, ok := b.(rdf.Array); ok {
			return array.Equal(av.A, bv.A)
		}
		return false, nil
	case rdf.String:
		if bv, ok := b.(rdf.String); ok {
			return av == bv, nil
		}
		return false, nil
	case rdf.DateTime:
		if bv, ok := b.(rdf.DateTime); ok {
			return av.T.Equal(bv.T), nil
		}
		return false, nil
	default:
		return rdf.SameTerm(a, b), nil
	}
}

// Compare orders two terms for <, <=, >, >= and ORDER BY. Numeric
// values compare numerically; strings and dateTimes natively; other
// kinds compare by kind rank then key (a total order usable for ORDER
// BY, while mixed-kind relational filters are errors). A NaN is
// unordered against every number: strict comparison reports
// errUnordered, which the relational operators read as false, and
// ORDER BY (strict false) sorts NaN after +INF, tied only with NaN.
func Compare(a, b rdf.Term, strict bool) (int, error) {
	if a == nil || b == nil {
		return 0, errf("comparison with unbound value")
	}
	an, aok := rdf.Numeric(a)
	bn, bok := rdf.Numeric(b)
	if aok && bok {
		af, bf := an.Float(), bn.Float()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		case af == bf:
			return 0, nil
		case strict:
			return 0, errUnordered
		case af == af: // only b is NaN
			return -1, nil
		case bf == bf: // only a is NaN
			return 1, nil
		default:
			return 0, nil
		}
	}
	if as, ok := a.(rdf.String); ok {
		if bs, ok := b.(rdf.String); ok {
			return strings.Compare(as.Val, bs.Val), nil
		}
	}
	if ad, ok := a.(rdf.DateTime); ok {
		if bd, ok := b.(rdf.DateTime); ok {
			return ad.T.Compare(bd.T), nil
		}
	}
	if strict {
		return 0, errf("cannot order %v and %v", a.Kind(), b.Kind())
	}
	ra, rb := kindRank(a.Kind()), kindRank(b.Kind())
	if ra != rb {
		if ra < rb {
			return -1, nil
		}
		return 1, nil
	}
	return rdf.CompareKeys(a, b), nil
}

// errUnordered is Compare's strict answer when an operand is NaN.
var errUnordered = errf("NaN is unordered")

// orderCmp is the ORDER BY key order both sorts use, for one
// condition's values on two rows: an unbound value (or one whose
// expression failed, passed as nil) sorts first ascending, DESC flips
// the order, and everything else goes through Compare.
func orderCmp(a, b rdf.Term, desc bool) int {
	var c int
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		c = -1
	case b == nil:
		c = 1
	default:
		c, _ = Compare(a, b, false)
	}
	if desc {
		return -c
	}
	return c
}

func kindRank(k rdf.Kind) int {
	switch k {
	case rdf.KindBlank:
		return 0
	case rdf.KindIRI:
		return 1
	case rdf.KindInt, rdf.KindFloat, rdf.KindBool:
		return 2
	case rdf.KindString:
		return 3
	case rdf.KindDateTime:
		return 4
	case rdf.KindArray:
		return 5
	default:
		return 6
	}
}

// Arith applies a numeric/array binary operation. Arrays combine
// elementwise with arrays of the same shape and broadcast against
// scalars (§4.1.4).
func Arith(op string, a, b rdf.Term) (rdf.Term, error) {
	var aop array.Op
	switch op {
	case "+":
		aop = array.OpAdd
	case "-":
		aop = array.OpSub
	case "*":
		aop = array.OpMul
	case "/":
		aop = array.OpDiv
	case "MOD":
		aop = array.OpMod
	default:
		return nil, errf("unknown operator %q", op)
	}
	aa, aIsArr := a.(rdf.Array)
	ba, bIsArr := b.(rdf.Array)
	switch {
	case aIsArr && bIsArr:
		res, err := array.BinOp(aop, aa.A, ba.A)
		if err != nil {
			return nil, &exprError{msg: err.Error()}
		}
		return rdf.NewArray(res), nil
	case aIsArr:
		bn, ok := rdf.Numeric(b)
		if !ok {
			return nil, errf("cannot apply %s to array and %v", op, b)
		}
		res, err := array.BinOpScalar(aop, aa.A, bn, false)
		if err != nil {
			return nil, &exprError{msg: err.Error()}
		}
		return rdf.NewArray(res), nil
	case bIsArr:
		an, ok := rdf.Numeric(a)
		if !ok {
			return nil, errf("cannot apply %s to %v and array", op, a)
		}
		res, err := array.BinOpScalar(aop, ba.A, an, true)
		if err != nil {
			return nil, &exprError{msg: err.Error()}
		}
		return rdf.NewArray(res), nil
	}
	an, aok := rdf.Numeric(a)
	bn, bok := rdf.Numeric(b)
	if !aok || !bok {
		// String concatenation with '+' is a common SciSPARQL
		// convenience.
		if op == "+" {
			if as, ok := a.(rdf.String); ok {
				if bs, ok := b.(rdf.String); ok {
					return rdf.String{Val: as.Val + bs.Val}, nil
				}
			}
		}
		return nil, errf("cannot apply %s to %v and %v", op, termKindOf(a), termKindOf(b))
	}
	res, err := array.ApplyNum(aop, an, bn)
	if err != nil {
		return nil, &exprError{msg: err.Error()}
	}
	return rdf.FromNumber(res), nil
}

// The operators below are the one copy of each scalar rule (§17.2,
// §17.3): eval applies them to a binding's values and compileVecExpr
// picks one per closure at plan time. An operand arrives with its own
// evaluation error, so unary operators and truth take (value, error).

// truth is an operand's effective boolean value, or its error.
func truth(t rdf.Term, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	return EBV(t)
}

// filterKeeps is FILTER's rule over its condition's truth: true keeps
// the row; false or an expression error drops it (§3.6); any other
// error ends the query.
func filterKeeps(ok bool, err error) (bool, error) {
	if _, isExpr := err.(*exprError); isExpr {
		return false, nil
	}
	return ok && err == nil, err
}

// opNot is unary !.
func opNot(x rdf.Term, err error) (rdf.Term, error) {
	t, err := truth(x, err)
	if err != nil {
		return nil, err
	}
	return rdf.Boolean(!t), nil
}

// opNeg is unary -, elementwise over an array.
func opNeg(x rdf.Term, err error) (rdf.Term, error) {
	if err != nil {
		return nil, err
	}
	if a, ok := x.(rdf.Array); ok {
		res, err := a.A.Neg()
		if err != nil {
			return nil, &exprError{msg: err.Error()}
		}
		return rdf.NewArray(res), nil
	}
	n, ok := rdf.Numeric(x)
	if !ok {
		return nil, errf("cannot negate %v", termKindOf(x))
	}
	if n.T == array.Int {
		return rdf.Integer(-n.I), nil
	}
	return rdf.Float(-n.F), nil
}

// logic is three-valued && (and true) or || over both operands'
// truth: an error on one side is recoverable when the other side
// alone decides the answer.
func logic(and bool, l bool, lerr error, r bool, rerr error) (rdf.Term, error) {
	switch {
	case lerr == nil && rerr == nil:
		if and {
			return rdf.Boolean(l && r), nil
		}
		return rdf.Boolean(l || r), nil
	case lerr == nil && l != and:
		return rdf.Boolean(l), nil
	case rerr == nil && r != and:
		return rdf.Boolean(r), nil
	case lerr != nil:
		return nil, lerr
	default:
		return nil, rerr
	}
}

// binaryOp returns the rule of a binary operator other than && and ||:
// = and != by Equals, the four relations by Compare, arithmetic by
// Arith.
func binaryOp(op string) func(l, r rdf.Term) (rdf.Term, error) {
	switch op {
	case "=":
		return opEqual
	case "!=":
		return opNotEqual
	case "<":
		return opLess
	case "<=":
		return opLessEqual
	case ">":
		return opGreater
	case ">=":
		return opGreaterEqual
	case "+":
		return opAdd
	case "-":
		return opSub
	case "*":
		return opMul
	case "/":
		return opDiv
	case "MOD":
		return opMod
	}
	return func(l, r rdf.Term) (rdf.Term, error) { return Arith(op, l, r) }
}

func opEqual(l, r rdf.Term) (rdf.Term, error) {
	eq, err := Equals(l, r)
	if err != nil {
		return nil, err
	}
	return rdf.Boolean(eq), nil
}

func opNotEqual(l, r rdf.Term) (rdf.Term, error) {
	eq, err := Equals(l, r)
	if err != nil {
		return nil, err
	}
	return rdf.Boolean(!eq), nil
}

// relation returns the rule of <, <=, > or >=: it answers lt, eq or gt
// by how l compares with r, and false when either is NaN
// (op:numeric-less-than and op:numeric-greater-than are false for NaN).
func relation(lt, eq, gt bool) func(l, r rdf.Term) (rdf.Term, error) {
	return func(l, r rdf.Term) (rdf.Term, error) {
		cmp, err := Compare(l, r, true)
		if err == errUnordered {
			return rdf.Boolean(false), nil
		}
		if err != nil {
			return nil, err
		}
		return rdf.Boolean(cmp < 0 && lt || cmp == 0 && eq || cmp > 0 && gt), nil
	}
}

var (
	opLess         = relation(true, false, false)
	opLessEqual    = relation(true, true, false)
	opGreater      = relation(false, false, true)
	opGreaterEqual = relation(false, true, true)
)

func opAdd(l, r rdf.Term) (rdf.Term, error) { return Arith("+", l, r) }
func opSub(l, r rdf.Term) (rdf.Term, error) { return Arith("-", l, r) }
func opMul(l, r rdf.Term) (rdf.Term, error) { return Arith("*", l, r) }
func opDiv(l, r rdf.Term) (rdf.Term, error) { return Arith("/", l, r) }
func opMod(l, r rdf.Term) (rdf.Term, error) { return Arith("MOD", l, r) }

func termKindOf(t rdf.Term) string {
	if t == nil {
		return "unbound"
	}
	return t.Kind().String()
}

// Closure is a function value: a named function with some arguments
// bound and the remaining positions (holes) to be supplied by a
// second-order function (§4.3). It implements rdf.Term so closures
// flow through bindings like any other value.
type Closure struct {
	Fn    string
	Bound []rdf.Term // nil entries are holes
	Holes []int      // indices into Bound that are holes, in order
}

// Kind implements rdf.Term; closures piggyback on the typed-literal
// kind since they never enter a graph.
func (Closure) Kind() rdf.Kind { return rdf.KindTyped }

// Key implements rdf.Term.
func (c Closure) Key() string { return "closure:" + c.Fn }

// String implements rdf.Term: #closure(FN).
func (c Closure) String() string { return "#closure(" + c.Fn + ")" }

// FuncValue resolves a term used in function position: a Closure, or
// an IRI / string naming a function.
func funcValueName(t rdf.Term) (string, *Closure, error) {
	switch v := t.(type) {
	case Closure:
		return v.Fn, &v, nil
	case rdf.IRI:
		return string(v), nil, nil
	case rdf.String:
		return v.Val, nil, nil
	default:
		return "", nil, errf("%v is not a function value", t)
	}
}
