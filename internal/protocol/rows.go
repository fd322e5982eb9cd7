package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"scisparql/internal/rdf"
)

// rowsHeader is the fixed prefix of a row table: the dictionary, row and
// cell counts as little-endian uint32s.
const rowsHeader = 4 + 4 + 4

// rowIndexes holds EncodeRows' term → dictionary-index maps, idIndexes
// AppendIDRows' graph-ID → dictionary-index maps.
var (
	rowIndexes = sync.Pool{New: func() any { return make(map[any]uint32) }}
	idIndexes  = sync.Pool{New: func() any { return make(map[rdf.ID]uint32) }}
)

// putIndex clears index and returns it to pool, unless one large table
// has grown it.
func putIndex[K comparable](pool *sync.Pool, index map[K]uint32) {
	if len(index) <= maxPooledTable/16 {
		clear(index)
		pool.Put(index)
	}
}

// putHeader writes a row table's header at the start of b.
func putHeader(b []byte, ndict, nrows, width int) {
	binary.LittleEndian.PutUint32(b, uint32(ndict))
	binary.LittleEndian.PutUint32(b[4:], uint32(nrows))
	binary.LittleEndian.PutUint32(b[8:], uint32(width))
}

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
// table goes on the wire as a frame's payload. It is a pooled buffer:
// hand it to Release once it has been written out.
func EncodeRows(rows [][]rdf.Term, width int) ([]byte, error) {
	index := rowIndexes.Get().(map[any]uint32)
	defer putIndex(&rowIndexes, index)
	blob, err := appendRows(newTable(rowsHeader), index, rows, width)
	if err != nil {
		Release(blob)
		return nil, err
	}
	putHeader(blob, len(index), len(rows), width)
	return blob, nil
}

// appendRows appends the cells of rows to blob, a bound cell as a
// reference to index's entry for its term or else a new entry. On error
// it returns the buffer it was writing to, for Release.
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
			if ix, ok := index[key]; ok {
				blob = binary.AppendUvarint(blob, uint64(ix)+2)
				continue
			}
			index[key] = uint32(len(index))
			b, err := appendDictTerm(append(blob, 1), t)
			if err != nil {
				return blob, err
			}
			blob = b
		}
	}
	return blob, nil
}

// AppendIDRows appends to blob a row table width cells wide whose rows
// are IDs of one graph, handed to yield one at a time by rows (yield
// returns false once the table has failed), and returns it with the
// number of rows it holds. term resolves a cell's ID to the term it
// carries and to the ID it is deduped on — the ID itself, or one the
// caller resolves to an equal term — so the bytes are those EncodeRows
// writes for the resolved rows. term runs once per distinct cell ID: the
// index maps each cell ID, as well as each key, to its term's entry. A
// nil blob starts a pooled buffer: hand the table to Release once it has
// been written out. On error no table is returned.
func AppendIDRows(blob []byte, width int, term func(rdf.ID) (rdf.ID, rdf.Term, error), rows func(yield func(row []rdf.ID) bool)) ([]byte, int, error) {
	index := idIndexes.Get().(map[rdf.ID]uint32)
	defer putIndex(&idIndexes, index)
	pooled := blob == nil
	if pooled {
		blob = newTable(0)
	}
	at := len(blob)
	blob = append(blob, make([]byte, rowsHeader)...)
	n, ndict := 0, 0
	var err error
	rows(func(row []rdf.ID) bool {
		if len(row) != width {
			err = fmt.Errorf("protocol: a row of %d cells in a table %d wide", len(row), width)
			return false
		}
		if width == 0 {
			blob = append(blob, 0)
		}
		// A large table doubles, where append would grow it by a quarter
		// at a time and copy it about five times over (a durable load's
		// batch record is one table of the whole document).
		if len(blob) >= 256 && cap(blob)-len(blob) < 64 {
			blob = slices.Grow(blob, len(blob))
		}
		for _, id := range row {
			ix, ok := index[id]
			if !ok {
				key, t, e := term(id)
				if e == nil {
					if ix, ok = index[key]; !ok {
						ix, ndict = uint32(ndict), ndict+1
						blob, e = appendDictTerm(append(blob, 1), t)
					}
				}
				if e != nil {
					err = e
					return false
				}
				index[id], index[key] = ix, ix
				if !ok {
					continue
				}
			}
			blob = binary.AppendUvarint(blob, uint64(ix)+2)
		}
		n++
		return true
	})
	if err != nil {
		if pooled {
			Release(blob)
		}
		return nil, 0, err
	}
	putHeader(blob[at:], ndict, n, width)
	return blob, n, nil
}

// termLists holds EachRow's term lists — a row's cells, then the
// dictionary — cleared so they pin no blob.
var termLists = sync.Pool{New: func() any { return new([]rdf.Term) }}

// EachRow reads blob, a row table, and is the only code that does. It
// calls start with the table's row count and width, then emit with each
// row in order, nil standing for unbound, until emit returns false. row
// is overwritten by the next one: its terms are the caller's to keep,
// the slice is not. Each distinct term is decoded once: texts share
// blob's memory (so blob must not change afterwards) and arrays are
// unmarshalled straight from it; a row of terms already seen allocates
// nothing. An error from start is returned as it is, before any row.
// Anything that is not a well-formed table is an ErrMalformed error —
// never a panic, and no allocation is sized by a count the bytes
// present cannot back; emit may have seen a prefix of the rows by then.
func EachRow(blob []byte, start func(nrows, width int) error, emit func(row []rdf.Term) bool) error {
	if len(blob) < rowsHeader {
		return fmt.Errorf("%w: a %d-byte row table", ErrMalformed, len(blob))
	}
	ndict := uint64(binary.LittleEndian.Uint32(blob))
	nrows := uint64(binary.LittleEndian.Uint32(blob[4:]))
	width := uint64(binary.LittleEndian.Uint32(blob[8:]))
	r := reader{b: blob[rowsHeader:]}
	// A row is at least one byte, a cell at least one, a new term's cell
	// at least three (marker, kind, payload).
	if size := uint64(len(r.b)); nrows > size/max(width, 1) || ndict > size/3 {
		return fmt.Errorf("%w: %d rows of %d cells over %d terms exceed the payload", ErrMalformed, nrows, width, ndict)
	}
	if err := start(int(nrows), int(width)); err != nil {
		return err
	}
	cells := width
	if nrows == 0 {
		cells = 0 // nothing backs the width of a table with no rows
	}
	list := termLists.Get().(*[]rdf.Term)
	buf := append((*list)[:0], make([]rdf.Term, cells+ndict)...)
	row, dict := buf[:cells:cells], buf[cells:cells]
	defer func() {
		clear(buf)
		if *list = buf[:0]; cap(buf) <= maxPooledTable/16 {
			termLists.Put(list)
		}
	}()
	for i := range nrows {
		if width == 0 && (r.uvarint() != 0 || r.bad) {
			return fmt.Errorf("%w: a row of width 0 is one unbound cell", ErrMalformed)
		}
		for c := range row {
			switch ix := r.uvarint(); {
			case r.bad:
				return fmt.Errorf("%w: truncated at row %d", ErrMalformed, i)
			case ix == 0:
				row[c] = nil
			case ix == 1:
				if uint64(len(dict)) == ndict {
					return fmt.Errorf("%w: more terms than the %d announced", ErrMalformed, ndict)
				}
				t, err := r.term()
				if err != nil {
					return err
				}
				dict = append(dict, t)
				row[c] = t
			case ix-2 < uint64(len(dict)):
				row[c] = dict[ix-2]
			default:
				return fmt.Errorf("%w: dictionary index out of range", ErrMalformed)
			}
		}
		if !emit(row) {
			return nil
		}
	}
	if len(r.b) != 0 || uint64(len(dict)) != ndict {
		return fmt.Errorf("%w: %d stray bytes, %d of %d terms", ErrMalformed, len(r.b), len(dict), ndict)
	}
	return nil
}

// DecodeRows reads a row table built by EncodeRows or AppendIDRows back
// into its rows, nil standing for unbound; the rows are windows of one
// cell slab. It is EachRow collecting every row.
func DecodeRows(blob []byte) ([][]rdf.Term, error) {
	var (
		rows  [][]rdf.Term
		cells []rdf.Term
	)
	err := EachRow(blob, func(nrows, width int) error {
		rows, cells = make([][]rdf.Term, 0, nrows), make([]rdf.Term, 0, nrows*width)
		return nil
	}, func(row []rdf.Term) bool {
		cells = append(cells, row...)
		rows = append(rows, cells[len(cells)-len(row):len(cells):len(cells)])
		return true
	})
	if err != nil {
		return nil, err
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
