package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"scisparql/internal/rdf"
)

// Dictionary entry kinds of a triple batch (see the package doc for the
// layout). A kind with no compact form travels as kindJSON: its
// protocol.Term as JSON, so EncodeTerm/DecodeTerm stay the one codec
// for it.
const (
	kindIRI     = iota // text
	kindBlank          // text
	kindStr            // text
	kindLangStr        // text value, text language tag
	kindInt            // zigzag varint
	kindFloat          // 8 bytes, little-endian IEEE-754 bits
	kindBool           // 1 byte, 0 or 1
	kindTyped          // text lexical form, text datatype IRI
	kindJSON           // text: the JSON of a protocol.Term (datetime, array)
)

// maxPooledBatch keeps a buffer out of the pools once one large scan
// has grown it (the ceiling engine.EncodeJSON uses).
const maxPooledBatch = 1 << 20

// batchHeader is the fixed prefix of a batch: the wildcard mask, then
// the dictionary and row counts as little-endian uint32s.
const batchHeader = 1 + 4 + 4

// Pooled scratch of EncodeTriples: the graph-ID → dictionary-index map,
// and the batch buffers handed out and taken back by ReleaseTriples.
var (
	batchIndexes = sync.Pool{New: func() any { return make(map[rdf.ID]uint32) }}
	batchBufs    = sync.Pool{New: func() any { return new([]byte) }}
)

// EncodeTriples drains scan — an enumeration of ID column batches shaped
// like rdf.Graph.MatchIDs, over g — into one triple batch and returns it
// with the number of triples it holds. wild marks the pattern's
// wildcard positions (subject, predicate, object): only those are
// shipped, the receiver knows the rest. The batch goes on the wire as a
// []byte JSON field, which encoding/json writes as base64 — the
// envelope arrays use. It is a pooled buffer: hand it to ReleaseTriples
// once it has been written out.
func EncodeTriples(g *rdf.Graph, wild [3]bool, scan func(yield func(s, p, o []rdf.ID) bool)) (blob []byte, n int, err error) {
	index := batchIndexes.Get().(map[rdf.ID]uint32)
	defer func() {
		if len(index) <= maxPooledBatch/16 {
			clear(index)
			batchIndexes.Put(index)
		}
	}()
	var mask byte
	for c, w := range wild {
		if w {
			mask |= 1 << c
		}
	}
	blob = append((*batchBufs.Get().(*[]byte))[:0], make([]byte, batchHeader)...)
	blob[0] = mask
	scan(func(s, p, o []rdf.ID) bool {
		cols := [3][]rdf.ID{s, p, o}
		for i := range s {
			for c, w := range wild {
				if !w {
					continue
				}
				id := cols[c][i]
				if ix, ok := index[id]; ok {
					blob = binary.AppendUvarint(blob, uint64(ix)+1)
					continue
				}
				index[id] = uint32(len(index))
				if blob, err = appendDictTerm(append(blob, 0), g.TermOf(id)); err != nil {
					return false
				}
			}
		}
		n += len(s)
		return true
	})
	if err != nil {
		ReleaseTriples(blob)
		return nil, 0, err
	}
	binary.LittleEndian.PutUint32(blob[1:], uint32(len(index)))
	binary.LittleEndian.PutUint32(blob[5:], uint32(n))
	return blob, n, nil
}

// ReleaseTriples returns a batch built by EncodeTriples to its pool; the
// caller must not touch it afterwards. A nil batch is a no-op.
func ReleaseTriples(blob []byte) {
	if blob != nil && cap(blob) <= maxPooledBatch {
		batchBufs.Put(&blob)
	}
}

func appendText(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendDictTerm appends one dictionary entry: the kind byte and its
// payload.
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
	}
	wt, err := EncodeTerm(t)
	if err != nil {
		return nil, err
	}
	js, err := json.Marshal(wt)
	if err != nil {
		return nil, err
	}
	return append(binary.AppendUvarint(append(b, kindJSON), uint64(len(js))), js...), nil
}

var errBadTriples = errors.New("protocol: bad triple batch")

// textReader reads a batch's cells off one string copy of it, so every
// decoded text is a substring of that copy rather than a copy of its
// own.
type textReader struct {
	s   string
	bad bool
}

func (r *textReader) uvarint() uint64 {
	var x uint64
	for i := 0; i < len(r.s) && i < binary.MaxVarintLen64; i++ {
		b := r.s[i]
		x |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			r.s = r.s[i+1:]
			return x
		}
	}
	r.bad = true
	return 0
}

func (r *textReader) next(n uint64) string {
	if n > uint64(len(r.s)) {
		r.bad, n = true, 0
	}
	out := r.s[:n]
	r.s = r.s[n:]
	return out
}

func (r *textReader) text() string { return r.next(r.uvarint()) }

func (r *textReader) term() (rdf.Term, error) {
	kind := r.next(1)
	if r.bad {
		return nil, errBadTriples
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
			t = rdf.Float(math.Float64frombits(binary.LittleEndian.Uint64([]byte(b))))
		}
	case kindBool:
		if b := r.next(1); !r.bad {
			t = rdf.Boolean(b[0] != 0)
		}
	case kindTyped:
		t = rdf.Typed{Lexical: r.text(), Datatype: rdf.IRI(r.text())}
	case kindJSON:
		var wt Term
		js := r.text()
		if r.bad {
			return nil, errBadTriples
		}
		if err := json.Unmarshal([]byte(js), &wt); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadTriples, err)
		}
		t, err := DecodeTerm(wt)
		if err == nil && t == nil {
			err = fmt.Errorf("%w: unbound dictionary entry", errBadTriples)
		}
		return t, err
	default:
		return nil, fmt.Errorf("%w: unknown term kind %d", errBadTriples, kind[0])
	}
	if r.bad {
		return nil, errBadTriples
	}
	return t, nil
}

// DecodeTriples reads a batch built by EncodeTriples for the pattern
// (s, p, o) — nil positions are the wildcards the batch carries, the
// others are replayed from the arguments — and hands each triple to
// emit until it returns false. Each distinct term is decoded once, into
// a dictionary of exactly the announced length whose texts are
// substrings of one copy of the batch; replaying a row of known terms
// allocates nothing. Anything that is not a well-formed batch for that
// pattern is an error (never a panic, and no allocation is sized by a
// count the bytes present cannot back); emit may have seen a prefix of
// the rows by then.
func DecodeTriples(blob []byte, s, p, o rdf.Term, emit func(s, p, o rdf.Term) bool) error {
	var mask byte
	open := 0
	for c, t := range [3]rdf.Term{s, p, o} {
		if t == nil {
			mask |= 1 << c
			open++
		}
	}
	if len(blob) < batchHeader || blob[0] != mask {
		return fmt.Errorf("%w: not a batch for this pattern", errBadTriples)
	}
	ndict := uint64(binary.LittleEndian.Uint32(blob[1:]))
	nrows := uint64(binary.LittleEndian.Uint32(blob[5:]))
	r := textReader{s: string(blob[batchHeader:])}
	// A cell is at least one byte, a new term's cell at least three
	// (marker, kind, payload); a ground pattern has no cells at all, so
	// no terms either.
	switch size := uint64(len(r.s)); {
	case open == 0 && (nrows > 1 || ndict != 0 || size != 0):
		return fmt.Errorf("%w: a ground pattern matches at most once", errBadTriples)
	case open > 0 && (nrows > size/uint64(open) || ndict > size/3):
		return fmt.Errorf("%w: %d rows over %d terms exceed the payload", errBadTriples, nrows, ndict)
	}
	dict := make([]rdf.Term, 0, ndict)
	for ; nrows > 0; nrows-- {
		row := [3]rdf.Term{s, p, o}
		for c := range row {
			if mask&(1<<c) == 0 {
				continue
			}
			switch ix := r.uvarint(); {
			case r.bad || ix > uint64(len(dict)):
				return fmt.Errorf("%w: dictionary index out of range", errBadTriples)
			case ix > 0:
				row[c] = dict[ix-1]
			case uint64(len(dict)) == ndict:
				return fmt.Errorf("%w: more terms than the %d announced", errBadTriples, ndict)
			default:
				t, err := r.term()
				if err != nil {
					return err
				}
				dict = append(dict, t)
				row[c] = t
			}
		}
		if !emit(row[0], row[1], row[2]) {
			return nil
		}
	}
	if len(r.s) != 0 || uint64(len(dict)) != ndict {
		return fmt.Errorf("%w: %d stray bytes, %d of %d terms", errBadTriples, len(r.s), len(dict), ndict)
	}
	return nil
}
