package rdf

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/storage"
)

// identitySpecials are the terms whose keys the identity table must fold
// together or keep apart: NaN payloads, ±0, one instant in two zones,
// "x" beside "x"@en and a typed "x", a blank beside an IRI of the same
// text, and arrays, which the key map holds.
var identitySpecials = func() []Term {
	at := time.Date(2020, 1, 2, 3, 4, 5, 6, time.UTC)
	ts := []Term{
		Float(math.Float64frombits(0x7ff8000000000001)),
		Float(math.Float64frombits(0xfff0000000000abc)),
		Float(0),
		Float(math.Copysign(0, -1)),
		DateTime{T: at},
		DateTime{T: at.In(time.FixedZone("", 3600))},
		String{Val: "x"},
		String{Val: "x", Lang: "en"},
		Typed{Lexical: "x", Datatype: "http://ex/dt0"},
		Blank("x"),
		IRI("x"),
		Boolean(true),
		Boolean(false),
	}
	for _, a := range identityArrays {
		ts = append(ts, NewArray(a))
	}
	return ts
}()

// identityDraw returns a term of any kind from a domain of about 10 ×
// domain terms, so that draws repeat.
func identityDraw(rng *rand.Rand, domain int) Term {
	k := rng.Intn(domain)
	text := "x" + strconv.Itoa(k)
	switch rng.Intn(10) {
	case 0:
		return IRI(text)
	case 1:
		return Blank(text)
	case 2:
		return String{Val: text}
	case 3:
		return String{Val: text, Lang: []string{"en", "fr"}[k%2]}
	case 4:
		return Typed{Lexical: text, Datatype: IRI("http://ex/dt" + strconv.Itoa(k%3))}
	case 5:
		return Integer(k)
	case 6:
		return Float(float64(k) / 4)
	case 7:
		t := time.Unix(int64(k)*3600, int64(k%7))
		return DateTime{T: t.In(identityZones[rng.Intn(len(identityZones))])}
	case 8:
		return Boolean(k%2 == 0)
	}
	return identitySpecials[rng.Intn(len(identitySpecials))]
}

// keyDict is the reference dictionary: IDs by Key(), given out in order.
type keyDict map[string]ID

// check looks tm up and interns it in g, and holds both to the
// reference, which it then updates.
func (ref keyDict) check(t *testing.T, g *Graph, tm Term) {
	t.Helper()
	key := tm.Key()
	want, seen := ref[key]
	if id, ok := g.Lookup(tm); ok != seen || id != want {
		t.Fatalf("Lookup(%s) = %d, %v; want %d, %v", key, id, ok, want, seen)
	}
	if !seen {
		want = ID(len(ref) + 1)
		ref[key] = want
	}
	if id := g.Intern(tm); id != want {
		t.Fatalf("Intern(%s) = %d, want %d", key, id, want)
	}
	if got := g.TermOf(want).Key(); got != key {
		t.Fatalf("TermOf(%d) = %s, want %s", want, got, key)
	}
}

// TestIdentityTableMatchesKeyMap: interning and looking up seeded draws of
// every kind agrees with a map keyed by Key() — through the table's
// doublings, through Reset of a dictionary within maxScratch terms (the
// table kept) and of one past it (the table dropped), and through
// MoveArrays' rebinding of array IDs.
func TestIdentityTableMatchesKeyMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := NewGraph()
	ref := keyDict{}
	for range 6000 {
		ref.check(t, g, identityDraw(rng, 400))
	}
	if n := len(g.dict.index.slots); n < 16<<5 {
		t.Fatalf("the table has %d slots after %d terms: fewer than five doublings", n, len(ref))
	}

	for _, big := range []bool{false, true} {
		if big {
			for i := 0; len(ref) <= maxScratch; i++ {
				ref.check(t, g, IRI("http://ex/big/"+strconv.Itoa(i)))
			}
		}
		old := termsOf(ref, g)
		g.Reset()
		if kept := g.dict.index.slots != nil; kept == big {
			t.Fatalf("Reset after %d terms: table kept %v", len(ref), kept)
		}
		for _, tm := range old {
			if id, ok := g.Lookup(tm); ok {
				t.Fatalf("Lookup(%s) after Reset = %d", tm.Key(), id)
			}
		}
		ref = keyDict{}
		for range 3000 {
			ref.check(t, g, identityDraw(rng, 300))
		}
	}

	// Rebinding: the arrays move, their IDs stay, and the table's kinds
	// are untouched.
	p := IRI("http://ex/data")
	ref.check(t, g, p)
	for i := range 20 {
		s, o := IRI("http://ex/s"+strconv.Itoa(i)), NewArray(array.NewFloat(i+1))
		ref.check(t, g, s)
		ref.check(t, g, o)
		addTriple(g, s, p, o)
	}
	before := termsOf(ref, g)
	calls := 0
	if n, err := g.MoveArrays(storeOpen(storage.NewMemory(), &calls)); err != nil || n != 20 {
		t.Fatalf("MoveArrays = %d, %v; want 20", n, err)
	}
	for _, tm := range before {
		id := ref[tm.Key()]
		now := g.TermOf(id)
		if now.Key() != tm.Key() {
			if got, ok := g.Lookup(tm); ok {
				t.Fatalf("the moved-from array %s still has ID %d", tm.Key(), got)
			}
			delete(ref, tm.Key())
			ref[now.Key()] = id
		}
		if got, ok := g.Lookup(now); !ok || got != id {
			t.Fatalf("Lookup(%s) after MoveArrays = %d, %v; want %d", now.Key(), got, ok, id)
		}
	}
	for range 3000 {
		ref.check(t, g, identityDraw(rng, 300))
	}
}

// termsOf returns the terms ref holds, from g.
func termsOf(ref keyDict, g *Graph) []Term {
	ts := make([]Term, 0, len(ref))
	for _, id := range ref {
		ts = append(ts, g.TermOf(id))
	}
	return ts
}

// TestIdentityTableReadersDuringGrowth: readers look up equal copies of
// the terms one writer interns, across every doubling of the table. A
// term interned before a lookup began is found, under the ID it was
// given; none is found under another. Run it under -race.
func TestIdentityTableReadersDuringGrowth(t *testing.T) {
	const n = 20000
	g := NewGraph()
	probes := dictTerms(n)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				j := rng.Intn(n)
				interned := g.DictStats().Terms
				id, ok := g.Lookup(probes[j])
				if ok && id != ID(j+1) || !ok && j < interned {
					t.Errorf("Lookup(%s) = %d, %v with %d terms interned; want %d", probes[j].Key(), id, ok, interned, j+1)
					return
				}
			}
		}()
	}
	for i, tm := range dictTerms(n) {
		if id := g.Intern(tm); id != ID(i+1) {
			t.Errorf("Intern(%s) = %d, want %d", tm.Key(), id, i+1)
		}
	}
	close(done)
	wg.Wait()
}
