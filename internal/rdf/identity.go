package rdf

import (
	"hash/maphash"
	"math"
	"strings"
	"time"

	"scisparql/internal/array"
)

// termIndex is a dictionary's identity index, one entry per distinct
// Key(). The terms of this package's kinds but booleans share one
// open-addressing table, which holds no pointer for the collector to
// scan: a slot holds an ID and the term's 32-bit hash, which picks the
// slot and screens a probe before the term at the ID is compared by
// SameTerm. Each kind is hashed from its own value (probeOf), so a lookup
// builds no key and an entry keeps no second copy of the term's text:
//
//   - IRIs, blanks and plain strings: their text;
//   - language-tagged strings and typed literals: both of their strings;
//   - integers: the value; doubles: the bits, with every NaN one key
//     (Key renders them all "f:NaN"; ±0 stay apart, as their keys do);
//   - dateTimes: the instant (Key renders it in UTC).
//
// Booleans have two slots; arrays and foreign terms a map keyed by Key().
type termIndex struct {
	slots []uint64 // hash<<32 | ID; a power of two of them, at most 3/4 used; 0 is empty
	used  int
	bools [2]ID
	keyed map[string]ID
}

// probe is what the index places a term by: its hash when the table
// holds its kind, its Key() when the key map does. A dictionary operation
// builds it once for both of its lookups.
type probe struct {
	t   Term
	h   uint32
	key string
}

var hashSeed = maphash.MakeSeed()

func probeOf(t Term) probe {
	text := func(s string) uint64 { return maphash.String(hashSeed, s) }
	var h uint64
	switch v := t.(type) {
	case IRI:
		h = text(string(v))
	case Blank:
		h = ^text(string(v))
	case String:
		if h = text(v.Val); v.Lang != "" {
			h ^= mix(text(v.Lang))
		}
	case Integer:
		h = mix(uint64(v))
	case Float:
		h = ^mix(floatBits(v))
	case DateTime:
		at := instantOf(v.T)
		h = mix(uint64(at.sec) ^ mix(uint64(at.nsec)))
	case Typed:
		h = mix(text(v.Lexical)) ^ text(string(v.Datatype))
	case Boolean:
	default:
		return probe{t: t, key: t.Key()}
	}
	return probe{t: t, h: uint32(h >> 32)}
}

// mix is MurmurHash3's 64-bit finalizer: every bit of x reaches the high
// bits the table keeps.
func mix(x uint64) uint64 {
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// instant is a dateTime's identity: its UTC seconds and nanoseconds.
type instant struct {
	sec  int64
	nsec int32
}

func instantOf(t time.Time) instant { return instant{t.Unix(), int32(t.Nanosecond())} }

// nanBits is the one key every NaN payload folds to.
const nanBits = 0x7ff8000000000001

func floatBits(f Float) uint64 {
	if f != f {
		return nanBits
	}
	return math.Float64bits(float64(f))
}

func boolSlot(b Boolean) int {
	if b {
		return 1
	}
	return 0
}

// get returns the ID of p's term, or 0 when it has none; terms are the
// dictionary's, which the table's IDs index.
func (x *termIndex) get(p probe, terms []Term) ID {
	switch v := p.t.(type) {
	case Boolean:
		return x.bools[boolSlot(v)]
	case IRI, Blank, String, Integer, Float, DateTime, Typed:
		for i, step, mask := int(p.h), 1, len(x.slots)-1; x.used > 0; i, step = i+step, step+1 {
			s := x.slots[i&mask]
			if s == 0 {
				return 0
			}
			if uint32(s>>32) == p.h && SameTerm(p.t, terms[ID(s)-1]) {
				return ID(s)
			}
		}
		return 0
	}
	return x.keyed[p.key]
}

// put records id as the ID of p's term, which the index does not hold.
func (x *termIndex) put(p probe, id ID) {
	switch v := p.t.(type) {
	case Boolean:
		x.bools[boolSlot(v)] = id
	case IRI, Blank, String, Integer, Float, DateTime, Typed:
		if 4*(x.used+1) > 3*len(x.slots) {
			old := x.slots
			x.slots = make([]uint64, max(2*len(old), 16))
			for _, s := range old {
				if s != 0 {
					x.slots[x.free(uint32(s>>32))] = s
				}
			}
		}
		x.slots[x.free(p.h)] = uint64(p.h)<<32 | uint64(id)
		x.used++
	default:
		if x.keyed == nil {
			x.keyed = make(map[string]ID)
		}
		x.keyed[p.key] = id
	}
}

// free returns the first empty slot on h's probe sequence. Its steps
// grow by one, so it visits every slot of a power-of-two table.
func (x *termIndex) free(h uint32) int {
	i, step, mask := int(h), 1, len(x.slots)-1
	for x.slots[i&mask] != 0 {
		i, step = i+step, step+1
	}
	return i & mask
}

// textBytes is what a dictionary entry holds for t beyond the fixed
// per-entry overhead: its text (an array's or a foreign term's key is
// that text), and a resident array's elements.
func textBytes(t Term, key string) int {
	switch v := t.(type) {
	case IRI:
		return len(v)
	case Blank:
		return len(v)
	case String:
		return len(v.Val) + len(v.Lang)
	case Typed:
		return len(v.Lexical) + len(v.Datatype)
	case Integer, Float, Boolean, DateTime:
		return 0
	case Array:
		if v.A.Base.Resident() {
			return len(key) + v.A.Base.Size*array.ElemSize
		}
	}
	return len(key)
}

// SameTerm reports whether a and b are the same RDF term: exactly
// a.Key() == b.Key(), decided without building either key when both are
// of this package's kinds. Arrays and terms of other implementations
// compare by Key(); a term of another implementation is never the same
// as one of this package's scalar kinds.
func SameTerm(a, b Term) bool {
	switch av := a.(type) {
	case IRI, Blank, String, Integer, Boolean, Typed:
		return a == b // same dynamic type and value
	case Float:
		bv, ok := b.(Float)
		return ok && floatBits(av) == floatBits(bv)
	case DateTime:
		bv, ok := b.(DateTime)
		return ok && instantOf(av.T) == instantOf(bv.T)
	}
	return a.Key() == b.Key()
}

// CompareKeys orders two terms exactly as strings.Compare(a.Key(),
// b.Key()) does. A pair of IRIs — the pairs the engine's total order
// reaches by key on the measured workloads — is ordered without building
// either key; any other pair compares its keys.
func CompareKeys(a, b Term) int {
	if av, ok := a.(IRI); ok {
		if bv, ok := b.(IRI); ok {
			return compareClosed(string(av), string(bv))
		}
	}
	return strings.Compare(a.Key(), b.Key())
}

// compareClosed orders a+">" against b+">". Where one is a proper
// prefix of the other, its '>' meets the other's next byte: "<x>" sorts
// after "<x!>" although "x" sorts before "x!".
func compareClosed(a, b string) int {
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 || len(a) == len(b) {
		return c
	}
	if len(a) < len(b) {
		if '>' > b[n] {
			return 1
		}
		return -1
	}
	if a[n] < '>' {
		return -1
	}
	return 1
}
