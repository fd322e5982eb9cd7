package rdf

import (
	"math"
	"strings"
	"testing"
	"time"

	"scisparql/internal/array"
)

// identityArrays is the array pool fuzzed terms pick from: a view, a
// copy of it (the same term), a view of the same base at another
// offset, and a view of another base.
var identityArrays = func() []*array.Array {
	base := array.NewInt(4)
	a, b := *base, *base
	b.Offset, b.Shape = 1, []int{3}
	return []*array.Array{base, &a, &b, array.NewInt(4)}
}()

// identityZones are the offsets a fuzzed dateTime is rendered in: the
// same instant in any of them is the same term.
var identityZones = []*time.Location{
	time.UTC,
	time.FixedZone("", 3600),
	time.FixedZone("", -5*3600),
	time.FixedZone("", 5*3600+1800),
}

// fuzzTerm builds a term of any of the nine kinds from fuzz input: kind
// picks the kind, text and aux fill its strings, num its number.
func fuzzTerm(kind uint8, text, aux string, num uint64) Term {
	switch kind % 9 {
	case 0:
		return IRI(text)
	case 1:
		return Blank(text)
	case 2:
		return String{Val: text, Lang: aux}
	case 3:
		return Integer(int64(num))
	case 4:
		return Float(math.Float64frombits(num))
	case 5:
		return Boolean(num&1 == 1)
	case 6:
		// Seconds from the high bits (1698 to 2242), nanoseconds from the
		// low 30; aux picks the zone.
		sec, nsec := int64(num)>>30, int64(num&(1<<30-1))%1e9
		return DateTime{T: time.Unix(sec, nsec).In(identityZones[len(aux)%len(identityZones)])}
	case 7:
		return Typed{Lexical: text, Datatype: IRI(aux)}
	default:
		return NewArray(identityArrays[num%uint64(len(identityArrays))])
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// FuzzTermIdentity: for any two terms, the dictionary gives them one ID,
// SameTerm holds, and CompareKeys orders them exactly when and as their
// Key() strings say.
func FuzzTermIdentity(f *testing.F) {
	const (
		nan      = 0x7ff8000000000001
		nanOther = 0xfff0000000000abc
		negZero  = 0x8000000000000000
		posInf   = 0x7ff0000000000000
		negInf   = 0xfff0000000000000
		instant  = 1577934245 << 30 // 2020-01-02T03:04:05Z
	)
	type side struct {
		kind      uint8
		text, aux string
		num       uint64
	}
	seeds := [][2]side{
		{{kind: 4, num: nan}, {kind: 4, num: nanOther}},
		{{kind: 4, num: 0}, {kind: 4, num: negZero}},
		{{kind: 4, num: posInf}, {kind: 4, num: negInf}},
		{{kind: 6, num: instant}, {kind: 6, aux: "z", num: instant}},
		{{kind: 6, num: instant + 123456789}, {kind: 6, aux: "zz", num: instant + 123456789}},
		{{kind: 6, num: instant + 1}, {kind: 6, num: instant + 100000000}},
		{{kind: 2, text: "say \"hi\"\n", aux: "en"}, {kind: 2, text: "say \"hi\"\n", aux: "en-GB"}},
		{{kind: 2, text: "line\nbreak"}, {kind: 2, text: "line\nbreak", aux: "en"}},
		{{kind: 7, text: "a\\b\"c\x01é\U0001F600\xff", aux: "http://ex/dt"}, {kind: 7, text: "a\\b\"c\x01é\U0001F600\xfe", aux: "http://ex/dt"}},
		{{kind: 0, text: "http://ex/x"}, {kind: 1, text: "http://ex/x"}},
		{{kind: 0, text: "x"}, {kind: 0, text: "x!"}},
		{{kind: 0, text: "x"}, {kind: 0, text: "x?"}},
		{{kind: 0, text: "x>"}, {kind: 0, text: "x"}},
		{{kind: 1, text: "x"}, {kind: 1, text: "x!"}},
		{{kind: 3, num: 7}, {kind: 3, num: 7}},
		{{kind: 3, num: 7}, {kind: 4, num: 7}},
		{{kind: 5, num: 0}, {kind: 5, num: 1}},
		{{kind: 8, num: 0}, {kind: 8, num: 1}},
		{{kind: 8, num: 1}, {kind: 8, num: 2}},
		{{kind: 2, text: "1"}, {kind: 7, text: "1", aux: "http://www.w3.org/2001/XMLSchema#string"}},
	}
	for _, s := range seeds {
		f.Add(s[0].kind, s[0].text, s[0].aux, s[0].num, s[1].kind, s[1].text, s[1].aux, s[1].num)
	}
	f.Fuzz(func(t *testing.T, ka uint8, ta, xa string, na uint64, kb uint8, tb, xb string, nb uint64) {
		a, b := fuzzTerm(ka, ta, xa, na), fuzzTerm(kb, tb, xb, nb)
		keyA, keyB := a.Key(), b.Key()
		same := keyA == keyB

		g := NewGraph()
		ia := g.Intern(a)
		if id, ok := g.Lookup(b); ok != same || ok && id != ia {
			t.Fatalf("Lookup(%s) after Intern(%s) = %d, %v; keys equal: %v", keyB, keyA, id, ok, same)
		}
		if ib := g.Intern(b); (ia == ib) != same {
			t.Fatalf("Intern(%s) = %d, Intern(%s) = %d; keys equal: %v", keyA, ia, keyB, ib, same)
		}
		if g.TermOf(ia).Key() != keyA {
			t.Fatalf("TermOf(%d) = %s, want %s", ia, g.TermOf(ia).Key(), keyA)
		}
		if SameTerm(a, b) != same || SameTerm(b, a) != same {
			t.Fatalf("SameTerm(%s, %s) = %v / %v, keys equal: %v", keyA, keyB, SameTerm(a, b), SameTerm(b, a), same)
		}
		want := strings.Compare(keyA, keyB)
		if got := CompareKeys(a, b); sign(got) != want {
			t.Fatalf("CompareKeys(%s, %s) = %d, want the sign of %d", keyA, keyB, got, want)
		}
		if got := CompareKeys(b, a); sign(got) != -want {
			t.Fatalf("CompareKeys(%s, %s) = %d, want the sign of %d", keyB, keyA, got, -want)
		}
	})
}

// TestDictBytesCountText: DictStats.Bytes counts each entry's text plus a
// fixed overhead, not the length of a key.
func TestDictBytesCountText(t *testing.T) {
	g := NewGraph()
	g.Intern(IRI("http://ex/a"))                             // 11
	g.Intern(String{Val: "chat", Lang: "fr"})                // 6
	g.Intern(Typed{Lexical: "x", Datatype: IRI("http://d")}) // 9
	g.Intern(Integer(12345))                                 // 0
	g.Intern(IRI("http://ex/a"))                             // a hit: nothing
	if got, want := g.DictStats().Bytes, int64(11+6+9+4*termOverheadBytes); got != want {
		t.Fatalf("DictStats().Bytes = %d, want %d", got, want)
	}
}
