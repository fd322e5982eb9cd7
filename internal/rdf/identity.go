package rdf

import (
	"math"
	"strings"
	"time"

	"scisparql/internal/array"
)

// termIndex is a dictionary's identity index: one map per kind, each
// keyed by the term's own value, holding one entry per distinct Key().
// A lookup builds no key and an entry retains no second copy of the
// term's text.
//
//   - IRIs, blanks and plain strings: their text (the map key shares
//     the term's bytes);
//   - language-tagged strings and typed literals: the struct value;
//   - integers: the value; doubles: the bits, with every NaN one key
//     (Key renders them all "f:NaN"; ±0 stay apart, as their keys do);
//   - booleans: two slots;
//   - dateTimes: the instant (Key renders it in UTC);
//   - arrays and foreign terms: Key().
//
// Maps are made on first insert, so a dictionary pays only for the kinds
// it holds.
type termIndex struct {
	iris   map[IRI]ID
	blanks map[Blank]ID
	plain  map[string]ID
	langs  map[String]ID
	ints   map[Integer]ID
	floats map[uint64]ID
	bools  [2]ID
	times  map[instant]ID
	typed  map[Typed]ID
	keyed  map[string]ID
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

// foreignKey returns t.Key() when that is t's identity in the index — an
// Array or a term of another implementation — and "" otherwise, so a
// dictionary operation builds such a key once, not per index access.
func foreignKey(t Term) string {
	switch t.(type) {
	case IRI, Blank, String, Integer, Float, Boolean, DateTime, Typed:
		return ""
	}
	return t.Key()
}

// get returns t's ID, or 0 when t has none; key is foreignKey(t).
func (x *termIndex) get(t Term, key string) ID {
	switch v := t.(type) {
	case IRI:
		return x.iris[v]
	case Blank:
		return x.blanks[v]
	case String:
		if v.Lang == "" {
			return x.plain[v.Val]
		}
		return x.langs[v]
	case Integer:
		return x.ints[v]
	case Float:
		return x.floats[floatBits(v)]
	case Boolean:
		return x.bools[boolSlot(v)]
	case DateTime:
		return x.times[instantOf(v.T)]
	case Typed:
		return x.typed[v]
	default:
		return x.keyed[key]
	}
}

// put records id as t's ID; key is foreignKey(t).
func (x *termIndex) put(t Term, key string, id ID) {
	switch v := t.(type) {
	case IRI:
		putKey(&x.iris, v, id)
	case Blank:
		putKey(&x.blanks, v, id)
	case String:
		if v.Lang == "" {
			putKey(&x.plain, v.Val, id)
		} else {
			putKey(&x.langs, v, id)
		}
	case Integer:
		putKey(&x.ints, v, id)
	case Float:
		putKey(&x.floats, floatBits(v), id)
	case Boolean:
		x.bools[boolSlot(v)] = id
	case DateTime:
		putKey(&x.times, instantOf(v.T), id)
	case Typed:
		putKey(&x.typed, v, id)
	default:
		putKey(&x.keyed, key, id)
	}
}

func putKey[K comparable](m *map[K]ID, k K, id ID) {
	if *m == nil {
		*m = make(map[K]ID)
	}
	(*m)[k] = id
}

// textBytes is what a dictionary entry holds for t beyond the fixed
// per-entry overhead: its text (an array's or a foreign term's key,
// foreignKey(t), is that text), and a resident array's elements.
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
