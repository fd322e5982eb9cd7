package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
)

// Dictionary entry kinds of a row table (see the package doc for the
// layout). Every term kind has a binary form of its own; none travels as
// JSON nested in a table.
const (
	kindIRI      = iota // text
	kindBlank           // text
	kindStr             // text
	kindLangStr         // text value, text language tag
	kindInt             // zigzag varint
	kindFloat           // 8 bytes, little-endian IEEE-754 bits
	kindBool            // 1 byte, 0 or 1
	kindTyped           // text lexical form, text datatype IRI
	kindDateTime        // text: RFC 3339 with nanoseconds, offset kept
	kindArray           // uint64 length (little-endian), then array.AppendMarshal's bytes
)

// maxPooledTable keeps a buffer out of the pools once one large answer
// has grown it (the ceiling engine.EncodeJSON uses).
const maxPooledTable = 1 << 20

// tableBufs holds the buffers EncodeRows and AppendIDRows hand out and
// Release takes back.
var tableBufs = sync.Pool{New: func() any { return new([]byte) }}

// newTable returns a pooled buffer holding header zero bytes.
func newTable(header int) []byte {
	return append((*tableBufs.Get().(*[]byte))[:0], make([]byte, header)...)
}

// Release returns a row table to its pool; the caller must not touch it
// afterwards. A nil buffer is a no-op.
func Release(blob []byte) {
	if blob != nil && cap(blob) <= maxPooledTable {
		tableBufs.Put(&blob)
	}
}

func appendText(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendDictTerm appends one dictionary entry: the kind byte and its
// payload. A term of any type but the nine rdf kinds has no wire form.
func appendDictTerm(b []byte, t rdf.Term) ([]byte, error) {
	switch v := t.(type) {
	case rdf.IRI:
		return appendText(append(b, kindIRI), string(v)), nil
	case rdf.Blank:
		return appendText(append(b, kindBlank), string(v)), nil
	case rdf.String:
		if v.Lang == "" {
			return appendText(append(b, kindStr), v.Val), nil
		}
		return appendText(appendText(append(b, kindLangStr), v.Val), v.Lang), nil
	case rdf.Integer:
		return binary.AppendVarint(append(b, kindInt), int64(v)), nil
	case rdf.Float:
		return binary.LittleEndian.AppendUint64(append(b, kindFloat), math.Float64bits(float64(v))), nil
	case rdf.Boolean:
		if v {
			return append(b, kindBool, 1), nil
		}
		return append(b, kindBool, 0), nil
	case rdf.Typed:
		return appendText(appendText(append(b, kindTyped), v.Lexical), string(v.Datatype)), nil
	case rdf.DateTime:
		return appendText(append(b, kindDateTime), v.T.Format(time.RFC3339Nano)), nil
	case rdf.Array:
		at := len(b) + 1
		b, err := array.AppendMarshal(append(b, kindArray, 0, 0, 0, 0, 0, 0, 0, 0), v.A)
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
		return b, nil
	}
	return nil, fmt.Errorf("protocol: cannot encode %T", t)
}

// ErrMalformed reports bytes that are not a well-formed row table, or a
// table of a shape its reader refuses.
var ErrMalformed = errors.New("protocol: malformed table")

// reader reads a table's cells in place: texts are strings sharing the
// table's memory and array bodies are unmarshalled straight from it, so
// nothing is copied twice — and the table must not change once read.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *reader) next(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.bad, n = true, 0
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) text() string {
	b := r.next(r.uvarint())
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func (r *reader) term() (rdf.Term, error) {
	kind := r.next(1)
	if r.bad {
		return nil, ErrMalformed
	}
	var t rdf.Term
	switch kind[0] {
	case kindIRI:
		t = rdf.IRI(r.text())
	case kindBlank:
		t = rdf.Blank(r.text())
	case kindStr:
		t = rdf.String{Val: r.text()}
	case kindLangStr:
		t = rdf.String{Val: r.text(), Lang: r.text()}
	case kindInt:
		u := r.uvarint()
		t = rdf.Integer(int64(u>>1) ^ -int64(u&1))
	case kindFloat:
		if b := r.next(8); !r.bad {
			t = rdf.Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
	case kindBool:
		if b := r.next(1); !r.bad {
			t = rdf.Boolean(b[0] != 0)
		}
	case kindTyped:
		t = rdf.Typed{Lexical: r.text(), Datatype: rdf.IRI(r.text())}
	case kindDateTime:
		ts, err := time.Parse(time.RFC3339Nano, r.text())
		if err != nil && !r.bad {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		t = rdf.DateTime{T: ts}
	case kindArray:
		var n uint64
		if b := r.next(8); !r.bad {
			n = binary.LittleEndian.Uint64(b)
		}
		if body := r.next(n); !r.bad {
			a, err := array.Unmarshal(body)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
			}
			t = rdf.NewArray(a)
		}
	default:
		return nil, fmt.Errorf("%w: unknown term kind %d", ErrMalformed, kind[0])
	}
	if r.bad {
		return nil, ErrMalformed
	}
	return t, nil
}
