package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"scisparql/internal/array"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// answer is a query result reduced to what the correctness gate
// compares: the row count and two order-independent hashes of the
// canonical rows — Full over (kind, lexical form, datatype, language)
// of every cell, which JSON and framed-TCP responses can reproduce,
// and Lex over the lexical forms alone, which is all CSV carries.
type answer struct {
	Rows int
	Full uint64
	Lex  uint64
}

// cell is the canonical form of one result cell, derived here from
// the term itself rather than through the server's encoders.
type cell struct {
	Kind, Value, Datatype, Lang string
}

const (
	xsd       = "http://www.w3.org/2001/XMLSchema#"
	kindURI   = "uri"
	kindBNode = "bnode"
	kindLit   = "literal"
)

func cellOf(t rdf.Term) (cell, error) {
	switch v := t.(type) {
	case nil:
		return cell{}, nil
	case rdf.IRI:
		return cell{Kind: kindURI, Value: string(v)}, nil
	case rdf.Blank:
		return cell{Kind: kindBNode, Value: string(v)}, nil
	case rdf.String:
		return cell{Kind: kindLit, Value: v.Val, Lang: v.Lang}, nil
	case rdf.Integer:
		return cell{Kind: kindLit, Value: strconv.FormatInt(int64(v), 10), Datatype: xsd + "integer"}, nil
	case rdf.Float:
		return cell{Kind: kindLit, Value: v.String(), Datatype: xsd + "double"}, nil
	case rdf.Boolean:
		return cell{Kind: kindLit, Value: strconv.FormatBool(bool(v)), Datatype: xsd + "boolean"}, nil
	case rdf.Typed:
		return cell{Kind: kindLit, Value: v.Lexical, Datatype: string(v.Datatype)}, nil
	case rdf.Array:
		s, err := arrayLexical(v.A)
		return cell{Kind: kindLit, Value: s, Datatype: "array"}, err
	default:
		return cell{}, fmt.Errorf("oracle: no canonical form for %T", t)
	}
}

// arrayLexical renders every element of an array (the engine's own
// String truncates at 64), so a wrong element anywhere in a slice
// returned over the wire changes the hash.
func arrayLexical(a *array.Array) (string, error) {
	var sb strings.Builder
	fmt.Fprint(&sb, a.Shape)
	err := a.Each(func(_ []int, v array.Number) error {
		sb.WriteByte(' ')
		sb.WriteString(v.String())
		return nil
	})
	return sb.String(), err
}

// rowHasher folds canonical rows into an answer.
type rowHasher struct {
	order []int // column indices in variable-name order
	ans   answer
}

func newRowHasher(vars []string) *rowHasher {
	h := &rowHasher{order: make([]int, len(vars))}
	for i := range h.order {
		h.order[i] = i
	}
	sort.Slice(h.order, func(a, b int) bool { return vars[h.order[a]] < vars[h.order[b]] })
	names := fnv.New64a()
	for _, i := range h.order {
		names.Write([]byte(vars[i]))
		names.Write([]byte{0})
	}
	h.ans.Full, h.ans.Lex = names.Sum64(), names.Sum64()
	return h
}

// add folds one row given in the result's own column order. Row hashes
// are summed, so the answer does not depend on row order.
func (h *rowHasher) add(cells []cell) {
	full, lex := fnv.New64a(), fnv.New64a()
	for _, i := range h.order {
		c := cells[i]
		lexical := c.Value
		if c.Kind == kindBNode {
			lexical = "_:" + lexical
		}
		lex.Write([]byte(lexical))
		lex.Write([]byte{0})
		for _, s := range [...]string{c.Kind, c.Value, c.Datatype, c.Lang} {
			full.Write([]byte(s))
			full.Write([]byte{0})
		}
	}
	h.ans.Rows++
	h.ans.Full += mix(full.Sum64())
	h.ans.Lex += mix(lex.Sum64())
}

// mix scrambles a row hash before summation so that structured row
// differences do not cancel.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func boolAnswer(b bool) answer {
	h := newRowHasher([]string{"boolean"})
	h.add([]cell{{Kind: kindLit, Value: strconv.FormatBool(b), Datatype: xsd + "boolean"}})
	return h.ans
}

func answerOfTerms(vars []string, rows [][]rdf.Term) (answer, error) {
	h := newRowHasher(vars)
	cells := make([]cell, len(vars))
	for _, row := range rows {
		for i, t := range row {
			c, err := cellOf(t)
			if err != nil {
				return answer{}, err
			}
			cells[i] = c
		}
		h.add(cells)
	}
	return h.ans, nil
}

// answerOfResults is the oracle side: the embedded single-node answer.
func answerOfResults(res *engine.Results) (answer, error) {
	if res.Graph != nil {
		return answer{}, fmt.Errorf("oracle: CONSTRUCT/DESCRIBE results are not part of any workload")
	}
	if res.Form == sparql.FormAsk {
		return boolAnswer(res.Bool), nil
	}
	return answerOfTerms(res.Vars, res.Rows)
}

// answerOfJSON decodes a SPARQL 1.1 JSON results document.
func answerOfJSON(body []byte) (answer, error) {
	var doc struct {
		Head    struct{ Vars []string }
		Boolean *bool
		Results struct {
			Bindings []map[string]struct {
				Type, Value, Datatype string
				Lang                  string `json:"xml:lang"`
			}
		}
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return answer{}, fmt.Errorf("decoding JSON results: %w", err)
	}
	if doc.Boolean != nil {
		return boolAnswer(*doc.Boolean), nil
	}
	h := newRowHasher(doc.Head.Vars)
	cells := make([]cell, len(doc.Head.Vars))
	for _, b := range doc.Results.Bindings {
		for i, v := range doc.Head.Vars {
			t := b[v] // absent = unbound = zero cell
			cells[i] = cell{Kind: t.Type, Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
		}
		h.add(cells)
	}
	return h.ans, nil
}

// answerOfCSV decodes SPARQL 1.1 CSV results; only Rows and Lex are
// meaningful.
func answerOfCSV(body []byte) (answer, error) {
	recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		return answer{}, fmt.Errorf("decoding CSV results: %w", err)
	}
	if len(recs) == 0 {
		return answer{}, fmt.Errorf("CSV results without a header row")
	}
	h := newRowHasher(recs[0])
	cells := make([]cell, len(recs[0]))
	for _, rec := range recs[1:] {
		for i, v := range rec {
			cells[i] = cell{Value: v}
		}
		h.add(cells)
	}
	return h.ans, nil
}

// matches reports whether got agrees with the oracle for the format
// the response came in.
func (want answer) matches(got answer, format int) bool {
	if want.Rows != got.Rows {
		return false
	}
	if format == fmtCSV {
		return want.Lex == got.Lex
	}
	return want.Full == got.Full
}
