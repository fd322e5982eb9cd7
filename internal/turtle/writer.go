// Package turtle writes graphs as Turtle, the serialization the
// dissertation uses for RDF examples (§3.1.1).
// Arrays are written in the condensed collection syntax that
// SciSPARQL's loader consolidates back into arrays (§5.3.2). Documents
// are read by sparql.ParseTurtle, on the SPARQL lexer and term rules.
package turtle

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
)

// Writer serializes a graph back to Turtle, grouping triples by
// subject and abbreviating IRIs with the supplied prefixes. Array
// terms — the RDF-with-Arrays extension — are emitted using the
// condensed nested-collection syntax of §2.3.5.1, so a written
// document is plain standards-compliant Turtle that any reader can
// consume and that SSDM's loader re-consolidates into arrays.
type Writer struct {
	w        io.Writer
	prefixes []prefixDef // longest namespace first
	err      error
}

type prefixDef struct {
	name string
	ns   string
}

// NewWriter creates a writer emitting to w with the given
// prefix→namespace abbreviations.
func NewWriter(w io.Writer, prefixes map[string]string) *Writer {
	tw := &Writer{w: w}
	for name, ns := range prefixes {
		tw.prefixes = append(tw.prefixes, prefixDef{name, ns})
	}
	sort.Slice(tw.prefixes, func(i, j int) bool {
		if len(tw.prefixes[i].ns) != len(tw.prefixes[j].ns) {
			return len(tw.prefixes[i].ns) > len(tw.prefixes[j].ns)
		}
		return tw.prefixes[i].name < tw.prefixes[j].name
	})
	return tw
}

func (tw *Writer) printf(format string, args ...any) {
	if tw.err != nil {
		return
	}
	_, tw.err = fmt.Fprintf(tw.w, format, args...)
}

// WriteGraph emits the whole graph.
func (tw *Writer) WriteGraph(g *rdf.Graph) error {
	names := make([]string, 0, len(tw.prefixes))
	for _, p := range tw.prefixes {
		names = append(names, p.name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, p := range tw.prefixes {
			if p.name == name {
				tw.printf("@prefix %s: <%s> .\n", p.name, p.ns)
			}
		}
	}
	if len(tw.prefixes) > 0 {
		tw.printf("\n")
	}

	// Group by subject for ';' abbreviation, with deterministic order.
	type po struct{ p, o rdf.Term }
	bySubj := map[string][]po{}
	subjTerm := map[string]rdf.Term{}
	g.Triples(func(s, p, o rdf.Term) bool {
		k := s.Key()
		bySubj[k] = append(bySubj[k], po{p, o})
		subjTerm[k] = s
		return true
	})
	keys := make([]string, 0, len(bySubj))
	for k := range bySubj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		items := bySubj[k]
		sort.Slice(items, func(i, j int) bool {
			if items[i].p.Key() != items[j].p.Key() {
				return items[i].p.Key() < items[j].p.Key()
			}
			return items[i].o.Key() < items[j].o.Key()
		})
		tw.printf("%s ", tw.render(subjTerm[k]))
		for i, item := range items {
			if i > 0 {
				tw.printf(" ;\n    ")
			}
			tw.printf("%s %s", tw.render(item.p), tw.render(item.o))
		}
		tw.printf(" .\n")
	}
	return tw.err
}

// render converts a term to Turtle syntax with prefix abbreviation.
func (tw *Writer) render(t rdf.Term) string {
	switch v := t.(type) {
	case rdf.IRI:
		s := string(v)
		for _, p := range tw.prefixes {
			if rest, ok := strings.CutPrefix(s, p.ns); ok && isSafeLocal(rest) {
				return p.name + ":" + rest
			}
		}
		if v == rdf.RDFType {
			return "a"
		}
		return "<" + EscapeIRI(s) + ">"
	case rdf.String:
		s := `"` + EscapeLiteral(v.Val) + `"`
		if v.Lang != "" {
			s += "@" + v.Lang
		}
		return s
	case rdf.Typed:
		return `"` + EscapeLiteral(v.Lexical) + `"^^<` + EscapeIRI(string(v.Datatype)) + ">"
	case rdf.Array:
		return renderArray(v.A)
	case rdf.Float:
		// No Turtle number spells these; a typed literal does.
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return `"` + strconv.FormatFloat(f, 'g', -1, 64) + `"^^<` + string(rdf.XSDDouble) + ">"
		}
		return t.String()
	default:
		return t.String()
	}
}

// EscapeLiteral renders the body of a quoted string literal using only
// the escapes the Turtle/N-Triples/SPARQL grammars define: the ECHAR
// set (\" \\ \n \r \t \b \f) plus \uXXXX/\UXXXXXXXX for the remaining
// control characters. Go's strconv.Quote is not usable here — it emits
// \x and \a/\v escapes no RDF parser accepts — and round-trips through
// the lexer's UCHAR decoding are lossless.
func EscapeLiteral(s string) string {
	if !strings.ContainsFunc(s, needsLiteralEscape) {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		case '\b':
			sb.WriteString(`\b`)
		case '\f':
			sb.WriteString(`\f`)
		default:
			if r < 0x20 || r == 0x7F {
				fmt.Fprintf(&sb, `\u%04X`, r)
			} else {
				sb.WriteRune(r)
			}
		}
	}
	return sb.String()
}

func needsLiteralEscape(r rune) bool {
	return r < 0x20 || r == 0x7F || r == '"' || r == '\\'
}

// EscapeIRI renders an IRI body for an <...> IRIREF: characters the
// IRIREF production excludes (control characters, space, <, >, ", {,
// }, |, ^, `, \) become \uXXXX escapes so any IRI the store holds can
// be written and re-read losslessly.
func EscapeIRI(s string) string {
	if !strings.ContainsFunc(s, needsIRIEscape) {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 8)
	for _, r := range s {
		if needsIRIEscape(r) {
			fmt.Fprintf(&sb, `\u%04X`, r)
		} else {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

func needsIRIEscape(r rune) bool {
	if r <= 0x20 || r == 0x7F {
		return true
	}
	switch r {
	case '<', '>', '"', '{', '}', '|', '^', '`', '\\':
		return true
	}
	return false
}

// isSafeLocal reports whether s can be written as the local part of a
// prefixed name and read back whole: a letter or '_' first, then
// letters, digits, '_' and '-'. No dot, which a reader may split off
// as a statement's end, and no leading digit, which after an empty
// prefix reads as an array subscript's ':'.
func isSafeLocal(s string) bool {
	for i, r := range s {
		if !(r == '_' || unicode.IsLetter(r) || i > 0 && (r == '-' || unicode.IsDigit(r))) {
			return false
		}
	}
	return s != ""
}

// renderArray emits an array as nested Turtle collections.
func renderArray(a *array.Array) string {
	var sb strings.Builder
	var rec func(dim int, idx []int)
	rec = func(dim int, idx []int) {
		sb.WriteByte('(')
		for i := 0; i < a.Shape[dim]; i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			idx[dim] = i
			if dim == len(a.Shape)-1 {
				v, err := a.At(idx...)
				if err != nil {
					sb.WriteString("0")
				} else if v.T == array.Int {
					fmt.Fprintf(&sb, "%d", v.I)
				} else {
					s := fmt.Sprintf("%g", v.F)
					if !strings.ContainsAny(s, ".eE") {
						s += ".0"
					}
					sb.WriteString(s)
				}
			} else {
				rec(dim+1, idx)
			}
		}
		sb.WriteByte(')')
	}
	rec(0, make([]int, len(a.Shape)))
	return sb.String()
}

// Write serializes g to w with the given prefixes.
func Write(w io.Writer, g *rdf.Graph, prefixes map[string]string) error {
	return NewWriter(w, prefixes).WriteGraph(g)
}
