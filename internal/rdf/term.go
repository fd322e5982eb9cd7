// Package rdf implements the RDF-with-Arrays data model of SciSPARQL
// (dissertation §4, §5.2): RDF terms — IRIs, blank nodes and literals —
// extended with numeric multidimensional arrays as first-class values
// in subject-property-value triples, plus an indexed in-memory triple
// store with the per-predicate statistics the query optimizer uses.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"scisparql/internal/array"
)

// Kind discriminates the physical representations of RDF terms
// (dissertation §5.1: "physical representations of arrays and other
// RDF terms").
type Kind uint8

const (
	KindIRI Kind = iota
	KindBlank
	KindString
	KindInt
	KindFloat
	KindBool
	KindDateTime
	KindTyped // literal with an uninterpreted datatype
	KindArray
)

func (k Kind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindBlank:
		return "blank"
	case KindString:
		return "string"
	case KindInt:
		return "integer"
	case KindFloat:
		return "double"
	case KindBool:
		return "boolean"
	case KindDateTime:
		return "dateTime"
	case KindTyped:
		return "typed-literal"
	case KindArray:
		return "array"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Term is an RDF term: a graph node or edge label. Implementations are
// immutable values.
type Term interface {
	Kind() Kind
	// Key is a canonical representation: two terms are the same RDF
	// term iff their keys are equal. SameTerm and the dictionary decide
	// identity without building it, CompareKeys the key order of IRIs.
	Key() string
	// String renders the term in Turtle-compatible syntax.
	String() string
}

// IRI is a Universal Resource Identifier term.
type IRI string

func (IRI) Kind() Kind       { return KindIRI }
func (t IRI) Key() string    { return "<" + string(t) + ">" }
func (t IRI) String() string { return "<" + string(t) + ">" }

// Blank is a blank node, scoped to the dataset it appears in.
type Blank string

func (Blank) Kind() Kind       { return KindBlank }
func (t Blank) Key() string    { return "_:" + string(t) }
func (t Blank) String() string { return "_:" + string(t) }

// String is a plain or language-tagged string literal.
type String struct {
	Val  string
	Lang string
}

func (String) Kind() Kind { return KindString }

func (t String) Key() string { return t.String() }

func (t String) String() string {
	s := strconv.Quote(t.Val)
	if t.Lang != "" {
		s += "@" + t.Lang
	}
	return s
}

// Integer is an xsd:integer literal.
type Integer int64

func (Integer) Kind() Kind       { return KindInt }
func (t Integer) Key() string    { return "i:" + strconv.FormatInt(int64(t), 10) }
func (t Integer) String() string { return strconv.FormatInt(int64(t), 10) }

// Float is an xsd:double literal.
type Float float64

func (Float) Kind() Kind    { return KindFloat }
func (t Float) Key() string { return "f:" + strconv.FormatFloat(float64(t), 'g', -1, 64) }

func (t Float) String() string {
	s := strconv.FormatFloat(float64(t), 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// Boolean is an xsd:boolean literal.
type Boolean bool

func (Boolean) Kind() Kind    { return KindBool }
func (t Boolean) Key() string { return "b:" + t.String() }

func (t Boolean) String() string {
	if t {
		return "true"
	}
	return "false"
}

// DateTime is an xsd:dateTime literal.
type DateTime struct {
	T time.Time
}

func (DateTime) Kind() Kind { return KindDateTime }

func (t DateTime) Key() string { return "d:" + t.T.UTC().Format(time.RFC3339Nano) }

func (t DateTime) String() string {
	return `"` + t.T.Format(time.RFC3339Nano) + `"^^` + string(XSDDateTime.Key())
}

// Typed is a literal whose datatype SSDM does not interpret; it keeps
// the lexical form verbatim.
type Typed struct {
	Lexical  string
	Datatype IRI
}

func (Typed) Kind() Kind { return KindTyped }

func (t Typed) Key() string { return t.String() }

func (t Typed) String() string {
	return strconv.Quote(t.Lexical) + "^^" + t.Datatype.String()
}

// Array is the RDF-with-Arrays extension: a numeric multidimensional
// array attached as a value in a triple. Array terms are identified by
// the identity of their base array and the view over it — offset, shape
// and strides — so a view and its transpose are two terms; consolidation
// (§5.3) produces one base per logical array.
type Array struct {
	A *array.Array
}

func (Array) Kind() Kind { return KindArray }

func (t Array) Key() string {
	return fmt.Sprintf("a:%p:%d:%v:%v", t.A.Base, t.A.Offset, t.A.Shape, t.A.Strides)
}

func (t Array) String() string { return t.A.String() }

// NewArray wraps an array value as a term.
func NewArray(a *array.Array) Array { return Array{A: a} }

// Numeric extracts a scalar numeric value from a term, if it has one.
func Numeric(t Term) (array.Number, bool) {
	switch v := t.(type) {
	case Integer:
		return array.IntN(int64(v)), true
	case Float:
		return array.FloatN(float64(v)), true
	case Boolean:
		if v {
			return array.IntN(1), true
		}
		return array.IntN(0), true
	default:
		return array.Number{}, false
	}
}

// FromNumber converts a scalar back into a literal term.
func FromNumber(n array.Number) Term {
	if n.T == array.Int {
		return Integer(n.I)
	}
	return Float(n.F)
}

// Common vocabulary IRIs used by the loaders and the engine.
var (
	RDFType  = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
	RDFFirst = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#first")
	RDFRest  = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#rest")
	RDFNil   = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#nil")

	XSDInteger  = IRI("http://www.w3.org/2001/XMLSchema#integer")
	XSDDecimal  = IRI("http://www.w3.org/2001/XMLSchema#decimal")
	XSDDouble   = IRI("http://www.w3.org/2001/XMLSchema#double")
	XSDString   = IRI("http://www.w3.org/2001/XMLSchema#string")
	XSDBoolean  = IRI("http://www.w3.org/2001/XMLSchema#boolean")
	XSDDateTime = IRI("http://www.w3.org/2001/XMLSchema#dateTime")

	// QB is the W3C RDF Data Cube vocabulary namespace (§5.3.3).
	QBNS            = "http://purl.org/linked-data/cube#"
	QBDataSet       = IRI(QBNS + "DataSet")
	QBObservation   = IRI(QBNS + "Observation")
	QBDataSetProp   = IRI(QBNS + "dataSet")
	QBStructure     = IRI(QBNS + "structure")
	QBComponent     = IRI(QBNS + "component")
	QBDimensionProp = IRI(QBNS + "dimension")
	QBMeasureProp   = IRI(QBNS + "measure")
	QBOrderProp     = IRI(QBNS + "order")

	// SSDM is the vocabulary SciSPARQL itself introduces for
	// consolidated data-cube arrays and file links.
	SSDMNS        = "http://udbl.uu.se/ssdm#"
	SSDMArray     = IRI(SSDMNS + "array")
	SSDMDimension = IRI(SSDMNS + "dimension")
	SSDMIndex     = IRI(SSDMNS + "index")
	SSDMFileLink  = IRI(SSDMNS + "fileLink")
)
