package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"

	"scisparql/internal/rdf"
)

// rowsHeader is the fixed prefix of a row table: the dictionary, row and
// cell counts as little-endian uint32s.
const rowsHeader = 4 + 4 + 4

// rowIndexes holds EncodeRows' term → dictionary-index maps.
var rowIndexes = sync.Pool{New: func() any { return make(map[any]uint32) }}

// cellKey is what EncodeRows dedupes a term on: the term itself — each
// of the nine rdf kinds is comparable — except a zero or NaN double,
// whose bits tell -0 from 0 and give NaN an identity. ok is false for
// any other implementation of rdf.Term (an engine closure, say), which
// has no wire form.
func cellKey(t rdf.Term) (key any, ok bool) {
	switch v := t.(type) {
	case rdf.Float:
		if v == 0 || v != v {
			return math.Float64bits(float64(v)), true
		}
		return t, true
	case rdf.IRI, rdf.Blank, rdf.String, rdf.Integer, rdf.Boolean, rdf.DateTime, rdf.Typed, rdf.Array:
		return t, true
	}
	return nil, false
}

// EncodeRows encodes a solution table — rows of width cells, nil or a
// missing trailing cell being unbound — as one row table (the layout is
// in the package doc). It encodes every cell or none: a term with no
// wire form, or a row wider than width, fails the whole table. The
// table goes on the wire as a []byte JSON field, which encoding/json
// writes as base64. It is a pooled buffer: hand it to Release once it
// has been written out.
func EncodeRows(rows [][]rdf.Term, width int) ([]byte, error) {
	index := rowIndexes.Get().(map[any]uint32)
	defer func() {
		if len(index) <= maxPooledBatch/16 {
			clear(index)
			rowIndexes.Put(index)
		}
	}()
	blob, err := appendRows(newBatch(rowsHeader), index, rows, width)
	if err != nil {
		Release(blob)
		return nil, err
	}
	binary.LittleEndian.PutUint32(blob, uint32(len(index)))
	binary.LittleEndian.PutUint32(blob[4:], uint32(len(rows)))
	binary.LittleEndian.PutUint32(blob[8:], uint32(width))
	return blob, nil
}

// appendRows appends the cells of rows to blob, deduping terms through
// index. On error it returns the buffer it was writing to, for Release.
func appendRows(blob []byte, index map[any]uint32, rows [][]rdf.Term, width int) ([]byte, error) {
	for _, row := range rows {
		if len(row) > width {
			return blob, fmt.Errorf("protocol: a row of %d cells in a table %d wide", len(row), width)
		}
		if width == 0 {
			blob = append(blob, 0)
		}
		for c := range width {
			var t rdf.Term
			if c < len(row) {
				t = row[c]
			}
			if t == nil {
				blob = append(blob, 0)
				continue
			}
			key, ok := cellKey(t)
			if !ok {
				return blob, fmt.Errorf("protocol: cannot encode %T", t)
			}
			b, err := appendCell(blob, index, key, t)
			if err != nil {
				return blob, err
			}
			blob = b
		}
	}
	return blob, nil
}

// AppendTripleRows appends ts, triples of one graph's IDs, to blob as a
// width-3 row table: the bytes EncodeRows writes for the same rows with
// each cell resolved by term, which also names the key the cell is
// deduped on (the ID, or one the caller resolves to an equal term).
func AppendTripleRows(blob []byte, ts []rdf.Triple, term func(rdf.ID) (rdf.ID, rdf.Term, error)) ([]byte, error) {
	index := make(map[rdf.ID]uint32)
	at := len(blob)
	blob = append(blob, make([]byte, rowsHeader)...)
	for _, tr := range ts {
		for _, id := range [3]rdf.ID{tr.S, tr.P, tr.O} {
			key, t, err := term(id)
			if err == nil {
				blob, err = appendCell(blob, index, key, t)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	binary.LittleEndian.PutUint32(blob[at:], uint32(len(index)))
	binary.LittleEndian.PutUint32(blob[at+4:], uint32(len(ts)))
	binary.LittleEndian.PutUint32(blob[at+8:], 3)
	return blob, nil
}

// appendCell appends a bound cell: a reference to index's entry for key,
// or else a new entry for t. On error it returns blob as it was.
func appendCell[K comparable](blob []byte, index map[K]uint32, key K, t rdf.Term) ([]byte, error) {
	if ix, ok := index[key]; ok {
		return binary.AppendUvarint(blob, uint64(ix)+2), nil
	}
	index[key] = uint32(len(index))
	b, err := appendDictTerm(append(blob, 1), t)
	if err != nil {
		return blob, err
	}
	return b, nil
}

// DecodeRows reads a row table built by EncodeRows back into its rows,
// nil standing for unbound; the rows are windows of one cell slab. Each
// distinct term is decoded once: texts share blob's memory (so blob must
// not change afterwards) and arrays are unmarshalled straight from it.
// Anything that is not a well-formed table is an error — never a panic,
// and no allocation is sized by a count the bytes present cannot back.
func DecodeRows(blob []byte) ([][]rdf.Term, error) {
	if len(blob) < rowsHeader {
		return nil, fmt.Errorf("%w: a %d-byte row table", errBadBatch, len(blob))
	}
	ndict := uint64(binary.LittleEndian.Uint32(blob))
	nrows := uint64(binary.LittleEndian.Uint32(blob[4:]))
	width := uint64(binary.LittleEndian.Uint32(blob[8:]))
	r := reader{b: blob[rowsHeader:]}
	// A row is at least one byte, a cell at least one, a new term's cell
	// at least three (marker, kind, payload).
	if size := uint64(len(r.b)); nrows > size/max(width, 1) || ndict > size/3 {
		return nil, fmt.Errorf("%w: %d rows of %d cells over %d terms exceed the payload", errBadBatch, nrows, width, ndict)
	}
	rows := make([][]rdf.Term, nrows)
	cells := make([]rdf.Term, nrows*width)
	dict := make([]rdf.Term, 0, ndict)
	for i := range rows {
		row := cells[uint64(i)*width : uint64(i+1)*width : uint64(i+1)*width]
		rows[i] = row
		if width == 0 && (r.uvarint() != 0 || r.bad) {
			return nil, fmt.Errorf("%w: a row of width 0 is one unbound cell", errBadBatch)
		}
		for c := range row {
			switch ix := r.uvarint(); {
			case r.bad:
				return nil, fmt.Errorf("%w: truncated at row %d", errBadBatch, i)
			case ix == 0: // unbound
			case ix == 1:
				if uint64(len(dict)) == ndict {
					return nil, fmt.Errorf("%w: more terms than the %d announced", errBadBatch, ndict)
				}
				t, err := r.term()
				if err != nil {
					return nil, err
				}
				dict = append(dict, t)
				row[c] = t
			case ix-2 < uint64(len(dict)):
				row[c] = dict[ix-2]
			default:
				return nil, fmt.Errorf("%w: dictionary index out of range", errBadBatch)
			}
		}
	}
	if len(r.b) != 0 || uint64(len(dict)) != ndict {
		return nil, fmt.Errorf("%w: %d stray bytes, %d of %d terms", errBadBatch, len(r.b), len(dict), ndict)
	}
	return rows, nil
}

// OwnTerms copies the texts of rows DecodeRows returned out of the table
// they share, in place and once per term, so that terms a store keeps
// do not keep the whole table — a request, a log segment, an image —
// alive. It returns rows.
func OwnTerms(rows [][]rdf.Term) [][]rdf.Term {
	owned := make(map[rdf.Term]rdf.Term)
	for _, row := range rows {
		for i, t := range row {
			if c, ok := owned[t]; ok {
				row[i] = c
				continue
			}
			switch v := t.(type) {
			case rdf.IRI:
				row[i] = rdf.IRI(strings.Clone(string(v)))
			case rdf.Blank:
				row[i] = rdf.Blank(strings.Clone(string(v)))
			case rdf.String:
				row[i] = rdf.String{Val: strings.Clone(v.Val), Lang: strings.Clone(v.Lang)}
			case rdf.Typed:
				row[i] = rdf.Typed{Lexical: strings.Clone(v.Lexical), Datatype: rdf.IRI(strings.Clone(string(v.Datatype)))}
			default:
				continue // no text to copy; and as map keys, -0 and 0 would be one double
			}
			owned[t] = row[i]
		}
	}
	return rows
}
