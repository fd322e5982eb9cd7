package engine

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// This file serializes Results in the W3C interchange formats the
// SPARQL protocol requires: SPARQL 1.1 Query Results JSON
// (application/sparql-results+json) and CSV (text/csv). CONSTRUCT
// results serialize through internal/turtle instead — they are graphs,
// not solution tables.

// WriteJSON emits a SELECT or ASK result as SPARQL 1.1 Query Results
// JSON. Control characters in literals are escaped (\\uXXXX forms), so
// round-trips are lossless.
func WriteJSON(w io.Writer, r *Results) error {
	return EncodeJSON(r, nil, func(doc []byte) error {
		_, err := w.Write(doc)
		return err
	})
}

// jsonBufs recycles EncodeJSON's document buffers; a buffer grown past
// maxPooledJSON by one large result is dropped instead of pinned.
var jsonBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledJSON = 1 << 20

// EncodeJSON encodes the SPARQL 1.1 JSON results document for a SELECT
// or ASK result into a pooled buffer and hands the finished,
// newline-terminated document to emit; the bytes are valid only until
// emit returns. A term that cannot be serialized is reported before
// emit runs, so a caller never sees part of a document. analyze, when
// non-nil, is an encoded JSON value attached as the top-level "analyze"
// member. The bytes equal json.Encoder's for the same document held in
// maps: members in sorted key order, strings escaped HTML-safe.
func EncodeJSON(r *Results, analyze []byte, emit func(doc []byte) error) error {
	bp := jsonBufs.Get().(*[]byte)
	doc, err := appendJSON((*bp)[:0], r, analyze)
	if err == nil {
		err = emit(doc)
	}
	if cap(doc) <= maxPooledJSON {
		*bp = doc
		jsonBufs.Put(bp)
	}
	return err
}

func appendJSON(dst []byte, r *Results, analyze []byte) ([]byte, error) {
	dst = append(dst, '{')
	if analyze != nil {
		dst = append(append(append(dst, `"analyze":`...), analyze...), ',')
	}
	if r.Form == sparql.FormAsk {
		dst = strconv.AppendBool(append(dst, `"boolean":`...), r.Bool)
		return append(dst, ",\"head\":{}}\n"...), nil
	}
	dst = append(dst, `"head":{"vars":[`...)
	for i, v := range r.Vars {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, v)
	}
	dst = append(dst, `]},"results":{"bindings":[`...)
	// A binding object lists its variables in name order; a name
	// projected twice (adjacent in order) keeps its last bound cell.
	order := make([]int, len(r.Vars))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return r.Vars[order[a]] < r.Vars[order[b]] })
	for ri, row := range r.Rows {
		if ri > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		open := len(dst)
		for k := 0; k < len(order); {
			name := r.Vars[order[k]]
			var cell rdf.Term // stays nil when unbound: the variable is simply absent
			for ; k < len(order) && r.Vars[order[k]] == name; k++ {
				if i := order[k]; i < len(row) && row[i] != nil {
					cell = row[i]
				}
			}
			if cell == nil {
				continue
			}
			if len(dst) > open {
				dst = append(dst, ',')
			}
			dst = append(appendJSONString(dst, name), ':')
			var err error
			if dst, err = appendTermJSON(dst, cell); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}}\n"...), nil
}

// appendTermJSON renders one RDF term as a SPARQL-results JSON term
// object: {"type": "uri"|"literal"|"bnode", "value": ..., "datatype"?,
// "xml:lang"?}.
func appendTermJSON(dst []byte, t rdf.Term) ([]byte, error) {
	var dt rdf.IRI
	switch v := t.(type) {
	case rdf.IRI:
		return append(appendJSONString(append(dst, `{"type":"uri","value":`...), string(v)), '}'), nil
	case rdf.Blank:
		return append(appendJSONString(append(dst, `{"type":"bnode","value":`...), string(v)), '}'), nil
	case rdf.String:
		dst = appendJSONString(append(dst, `{"type":"literal","value":`...), v.Val)
		if v.Lang != "" {
			dst = appendJSONString(append(dst, `,"xml:lang":`...), v.Lang)
		}
		return append(dst, '}'), nil
	case rdf.Integer:
		dt = rdf.XSDInteger
	case rdf.Float:
		dt = rdf.XSDDouble
	case rdf.Boolean:
		dt = rdf.XSDBoolean
	case rdf.DateTime:
		dt = rdf.XSDDateTime
	case rdf.Typed:
		dt = v.Datatype
	case rdf.Array:
		// Arrays are SSDM's extension: serialize the nested-collection
		// rendering as a literal tagged with the ssdm:array datatype so
		// standard clients keep a faithful lexical form.
		dt = rdf.SSDMArray
	default:
		return dst, fmt.Errorf("cannot serialize %T as a SPARQL-results term", t)
	}
	dst = appendJSONString(append(dst, `{"datatype":`...), string(dt))
	return append(appendJSONString(append(dst, `,"type":"literal","value":`...), TermLexical(t)), '}'), nil
}

// appendJSONString appends s as a JSON string. Printable ASCII with
// nothing to escape is copied; any other string goes through
// encoding/json itself (HTML-safe escaping, \ufffd for invalid UTF-8),
// so the escaping cannot drift from the standard encoder's.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= utf8.RuneSelf || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(dst, enc...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// WriteCSV emits a SELECT result in the SPARQL 1.1 CSV format: a
// header row of variable names, then one row per solution with plain
// lexical values (unbound cells empty). Fields holding separators,
// quotes or line breaks are quoted per RFC 4180; lines end in CRLF as
// the media type requires. ASK results emit a single boolean cell.
func WriteCSV(w io.Writer, r *Results) error {
	cw := csv.NewWriter(w)
	cw.UseCRLF = true
	if r.Form == sparql.FormAsk {
		if err := cw.Write([]string{"boolean"}); err != nil {
			return err
		}
		verdict := "false"
		if r.Bool {
			verdict = "true"
		}
		if err := cw.Write([]string{verdict}); err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	}
	if err := cw.Write(r.Vars); err != nil {
		return err
	}
	rec := make([]string, len(r.Vars))
	for _, row := range r.Rows {
		for i, t := range row {
			rec[i] = TermLexical(t)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TermLexical returns the plain lexical form of a term for CSV output
// (no quoting, no datatype decoration); unbound (nil) is the empty
// string. A double with no digits takes xsd:double's lexical form:
// NaN, INF or -INF.
func TermLexical(t rdf.Term) string {
	switch v := t.(type) {
	case nil:
		return ""
	case rdf.Float:
		switch f := float64(v); {
		case math.IsNaN(f):
			return "NaN"
		case math.IsInf(f, 1):
			return "INF"
		case math.IsInf(f, -1):
			return "-INF"
		}
		return v.String()
	case rdf.IRI:
		return string(v)
	case rdf.Blank:
		return "_:" + string(v)
	case rdf.String:
		return v.Val
	case rdf.DateTime:
		return v.T.Format(time.RFC3339Nano)
	case rdf.Typed:
		return v.Lexical
	default:
		return v.String()
	}
}
