package protocol

import (
	"encoding/binary"
	"fmt"
	"sync"

	"scisparql/internal/rdf"
)

// batchHeader is the fixed prefix of a triple batch: the wildcard mask,
// then the dictionary and row counts as little-endian uint32s.
const batchHeader = 1 + 4 + 4

// batchIndexes holds EncodeTriples' graph-ID → dictionary-index maps.
var batchIndexes = sync.Pool{New: func() any { return make(map[rdf.ID]uint32) }}

// EncodeTriples drains scan — an enumeration of ID column batches shaped
// like rdf.Graph.MatchIDs, over g — into one triple batch and returns it
// with the number of triples it holds. wild marks the pattern's
// wildcard positions (subject, predicate, object): only those are
// shipped, the receiver knows the rest. The batch goes on the wire as a
// []byte JSON field, which encoding/json writes as base64 — the
// envelope arrays use. It is a pooled buffer: hand it to Release once
// it has been written out.
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
	blob = newBatch(batchHeader)
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
		Release(blob)
		return nil, 0, err
	}
	binary.LittleEndian.PutUint32(blob[1:], uint32(len(index)))
	binary.LittleEndian.PutUint32(blob[5:], uint32(n))
	return blob, n, nil
}

// termLists holds DecodeTriples' term lists, cleared so they pin no blob.
var termLists = sync.Pool{New: func() any { return new([]rdf.Term) }}

// DecodeTriples reads a batch built by EncodeTriples for the pattern
// (s, p, o) — nil positions are the wildcards the batch carries, the
// others are replayed from the arguments — and hands each triple to
// emit until it returns false. Each distinct term is decoded once, into
// a pooled list, and its text shares blob's memory (so blob must not
// change afterwards); replaying a row of known terms allocates nothing.
// Anything that is not a well-formed batch for that pattern is an error
// (never a panic, and no allocation is sized by a count the bytes
// present cannot back); emit may have seen a prefix of the rows by then.
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
		return fmt.Errorf("%w: not a triple batch for this pattern", errBadBatch)
	}
	ndict := uint64(binary.LittleEndian.Uint32(blob[1:]))
	nrows := uint64(binary.LittleEndian.Uint32(blob[5:]))
	r := reader{b: blob[batchHeader:]}
	// A cell is at least one byte, a new term's cell at least three
	// (marker, kind, payload); a ground pattern has no cells at all, so
	// no terms either.
	switch size := uint64(len(r.b)); {
	case open == 0 && (nrows > 1 || ndict != 0 || size != 0):
		return fmt.Errorf("%w: a ground pattern matches at most once", errBadBatch)
	case open > 0 && (nrows > size/uint64(open) || ndict > size/3):
		return fmt.Errorf("%w: %d rows over %d terms exceed the payload", errBadBatch, nrows, ndict)
	}
	list := termLists.Get().(*[]rdf.Term)
	dict := append((*list)[:0], make([]rdf.Term, ndict)...)[:0]
	defer func() {
		clear(dict)
		if *list = dict[:0]; cap(dict) <= maxPooledBatch/16 {
			termLists.Put(list)
		}
	}()
	for ; nrows > 0; nrows-- {
		row := [3]rdf.Term{s, p, o}
		for c := range row {
			if mask&(1<<c) == 0 {
				continue
			}
			switch ix := r.uvarint(); {
			case r.bad || ix > uint64(len(dict)):
				return fmt.Errorf("%w: dictionary index out of range", errBadBatch)
			case ix > 0:
				row[c] = dict[ix-1]
			case uint64(len(dict)) == ndict:
				return fmt.Errorf("%w: more terms than the %d announced", errBadBatch, ndict)
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
	if len(r.b) != 0 || uint64(len(dict)) != ndict {
		return fmt.Errorf("%w: %d stray bytes, %d of %d terms", errBadBatch, len(r.b), len(dict), ndict)
	}
	return nil
}
