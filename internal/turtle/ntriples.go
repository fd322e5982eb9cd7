package turtle

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
)

// WriteNTriples serializes a graph in the N-Triples line format: one
// fully expanded triple per line, deterministic order. Array terms are
// expanded into their rdf:first/rdf:rest list encoding (generating
// fresh blank nodes), so the output is plain standards-compliant
// N-Triples.
func WriteNTriples(w io.Writer, g *rdf.Graph) error {
	nw := &ntWriter{w: w}
	var lines []string
	g.Triples(func(s, p, o rdf.Term) bool {
		pi, ok := p.(rdf.IRI)
		if !ok {
			return true
		}
		lines = append(lines, nw.triple(s, pi, o)...)
		return true
	})
	if nw.err != nil {
		return nw.err
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

type ntWriter struct {
	w       io.Writer
	blankNo int
	err     error
}

func (nw *ntWriter) triple(s rdf.Term, p rdf.IRI, o rdf.Term) []string {
	if at, ok := o.(rdf.Array); ok {
		head, extra := nw.expandArray(at.A)
		line := fmt.Sprintf("%s %s %s .", nw.term(s), nw.term(p), head)
		return append([]string{line}, extra...)
	}
	return []string{fmt.Sprintf("%s %s %s .", nw.term(s), nw.term(p), nw.term(o))}
}

func (nw *ntWriter) fresh() string {
	nw.blankNo++
	return fmt.Sprintf("_:arr%d", nw.blankNo)
}

// expandArray emits the nested-list encoding of an array and returns
// the head node's rendering plus the generated triples.
func (nw *ntWriter) expandArray(a *array.Array) (string, []string) {
	var out []string
	var rec func(dim int, idx []int) string
	rec = func(dim int, idx []int) string {
		head := ""
		prev := ""
		for i := 0; i < a.Shape[dim]; i++ {
			idx[dim] = i
			cell := nw.fresh()
			if head == "" {
				head = cell
			}
			if prev != "" {
				out = append(out, fmt.Sprintf("%s <%s> %s .", prev, string(rdf.RDFRest), cell))
			}
			var valRepr string
			if dim == len(a.Shape)-1 {
				v, err := a.At(idx...)
				if err != nil {
					nw.err = err
					v = array.IntN(0)
				}
				if v.T == array.Int {
					valRepr = fmt.Sprintf("\"%d\"^^<%s>", v.I, string(rdf.XSDInteger))
				} else {
					valRepr = fmt.Sprintf("\"%s\"^^<%s>",
						strconv.FormatFloat(v.F, 'g', -1, 64), string(rdf.XSDDouble))
				}
			} else {
				valRepr = rec(dim+1, idx)
			}
			out = append(out, fmt.Sprintf("%s <%s> %s .", cell, string(rdf.RDFFirst), valRepr))
			prev = cell
		}
		out = append(out, fmt.Sprintf("%s <%s> <%s> .", prev, string(rdf.RDFRest), string(rdf.RDFNil)))
		return head
	}
	head := rec(0, make([]int, len(a.Shape)))
	return head, out
}

// term renders one term in N-Triples syntax. String literals and IRIs
// go through the shared Turtle escaping (ECHAR/UCHAR only), so control
// characters survive a write→parse round trip.
func (nw *ntWriter) term(t rdf.Term) string {
	switch v := t.(type) {
	case rdf.IRI:
		return "<" + EscapeIRI(string(v)) + ">"
	case rdf.Blank:
		return "_:" + string(v)
	case rdf.String:
		s := `"` + EscapeLiteral(v.Val) + `"`
		if v.Lang != "" {
			s += "@" + v.Lang
		}
		return s
	case rdf.Integer:
		return fmt.Sprintf("\"%d\"^^<%s>", int64(v), string(rdf.XSDInteger))
	case rdf.Float:
		return fmt.Sprintf("\"%s\"^^<%s>", strconv.FormatFloat(float64(v), 'g', -1, 64), string(rdf.XSDDouble))
	case rdf.Boolean:
		return fmt.Sprintf("\"%v\"^^<%s>", bool(v), string(rdf.XSDBoolean))
	case rdf.DateTime:
		return fmt.Sprintf("\"%s\"^^<%s>", v.T.Format(time.RFC3339Nano), string(rdf.XSDDateTime))
	case rdf.Typed:
		return `"` + EscapeLiteral(v.Lexical) + `"^^<` + EscapeIRI(string(v.Datatype)) + ">"
	default:
		nw.err = fmt.Errorf("turtle: cannot serialize %T as N-Triples", t)
		return "\"?\""
	}
}
