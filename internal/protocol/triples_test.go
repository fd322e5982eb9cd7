package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
)

// everyKind is one term of every kind EncodeTerm accepts, with the
// values a text rendering gets wrong.
func everyKind() []rdf.Term {
	a, _ := array.FromInts([]int64{1, 2, 3, 4, 5, 6}, 2, 3)
	return []rdf.Term{
		rdf.IRI("http://ex/a"),
		rdf.IRI(""),
		rdf.Blank("b1"),
		rdf.String{Val: "plain"},
		rdf.String{Val: "say \"hej\"\nthen leave", Lang: "sv"},
		rdf.Integer(-42),
		rdf.Integer(math.MinInt64),
		rdf.Integer(math.MaxInt64),
		rdf.Float(1e-7),
		rdf.Float(math.NaN()),
		rdf.Float(math.Inf(-1)),
		rdf.Boolean(true),
		rdf.Boolean(false),
		rdf.DateTime{T: time.Date(2012, 4, 1, 12, 30, 0, 123456789, time.FixedZone("", 3600))},
		rdf.Typed{Lexical: "a\"b\\c", Datatype: rdf.IRI("http://ex/dt")},
		rdf.NewArray(a),
	}
}

// batchOf encodes the triples (s[i], p[i], o[i]) of g as one batch.
func batchOf(t testing.TB, g *rdf.Graph, wild [3]bool, s, p, o []rdf.ID) []byte {
	t.Helper()
	blob, n, err := EncodeTriples(g, wild, func(yield func(s, p, o []rdf.ID) bool) {
		if len(s) > 0 {
			yield(s, p, o)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(s) {
		t.Fatalf("encoded %d triples, want %d", n, len(s))
	}
	return blob
}

func sameTerm(a, b rdf.Term) bool {
	if a.Kind() == rdf.KindArray && b.Kind() == rdf.KindArray {
		eq, _ := array.Equal(a.(rdf.Array).A, b.(rdf.Array).A)
		return eq
	}
	return a.Kind() == b.Kind() && a.Key() == b.Key()
}

// TestTriplesRoundTrip: for every kind, a term that went through a
// batch equals the term DecodeTerm(EncodeTerm(t)) gives — the batch is
// a second envelope, not a second opinion on what a term is.
func TestTriplesRoundTrip(t *testing.T) {
	g := rdf.NewGraph()
	subj, pred := g.Intern(rdf.IRI("http://ex/s")), g.Intern(rdf.IRI("http://ex/p"))
	var s, p, o []rdf.ID
	terms := everyKind()
	for _, term := range terms {
		// Twice each: the second row must reuse the dictionary entry.
		for range 2 {
			s, p, o = append(s, subj), append(p, pred), append(o, g.Intern(term))
		}
	}
	blob := batchOf(t, g, [3]bool{true, false, true}, s, p, o)

	i := 0
	err := DecodeTriples(blob, nil, rdf.IRI("http://ex/p"), nil, func(gs, gp, gobj rdf.Term) bool {
		wt, err := EncodeTerm(terms[i/2])
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeTerm(wt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTerm(gobj, want) {
			t.Errorf("row %d: object %v, want %v", i, gobj, want)
		}
		if gs != rdf.IRI("http://ex/s") || gp != rdf.IRI("http://ex/p") {
			t.Errorf("row %d: subject/predicate %v %v", i, gs, gp)
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(s) {
		t.Fatalf("replayed %d rows, want %d", i, len(s))
	}
	// 1 subject + one entry per distinct object, however many rows.
	if ndict := binary.LittleEndian.Uint32(blob[1:]); int(ndict) != 1+len(terms) {
		t.Errorf("dictionary holds %d entries, want %d", ndict, 1+len(terms))
	}
}

func TestTriplesGroundAndEmpty(t *testing.T) {
	g := rdf.NewGraph()
	a := g.Intern(rdf.IRI("http://ex/a"))
	x, y, z := rdf.IRI("http://ex/a"), rdf.IRI("http://ex/p"), rdf.Integer(1)
	count := func(blob []byte, s, p, o rdf.Term) (n int) {
		t.Helper()
		if err := DecodeTriples(blob, s, p, o, func(gs, gp, gobj rdf.Term) bool {
			if (s != nil && gs != s) || (p != nil && gp != p) || (o != nil && gobj != o) {
				t.Errorf("bound position not replayed: %v %v %v", gs, gp, gobj)
			}
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	present := batchOf(t, g, [3]bool{}, []rdf.ID{a}, []rdf.ID{a}, []rdf.ID{a})
	if n := count(present, x, y, z); n != 1 {
		t.Errorf("ground triple present: %d rows", n)
	}
	absent := batchOf(t, g, [3]bool{}, nil, nil, nil)
	if n := count(absent, x, y, z); n != 0 {
		t.Errorf("ground triple absent: %d rows", n)
	}
	none := batchOf(t, g, [3]bool{true, true, true}, nil, nil, nil)
	if n := count(none, nil, nil, nil); n != 0 {
		t.Errorf("empty scan: %d rows", n)
	}
	// emit can stop the replay.
	many := batchOf(t, g, [3]bool{true, false, false}, []rdf.ID{a, a, a}, []rdf.ID{a, a, a}, []rdf.ID{a, a, a})
	seen := 0
	if err := DecodeTriples(many, nil, y, z, func(_, _, _ rdf.Term) bool { seen++; return false }); err != nil || seen != 1 {
		t.Errorf("early stop: %d rows, err %v", seen, err)
	}
}

// TestDecodeTriplesHostile: whatever the bytes, an error — not a panic,
// not a slice sized by a count they cannot back.
func TestDecodeTriplesHostile(t *testing.T) {
	g := rdf.NewGraph()
	ids := []rdf.ID{g.Intern(rdf.IRI("http://ex/a")), g.Intern(rdf.IRI("http://ex/b"))}
	wild := [3]bool{true, false, false}
	good := batchOf(t, g, wild, ids, ids, ids)
	decode := func(b []byte) error {
		return DecodeTriples(b, nil, rdf.IRI("p"), rdf.IRI("o"), func(_, _, _ rdf.Term) bool { return true })
	}
	if err := decode(good); err != nil {
		t.Fatal(err)
	}
	// The "ground" cases are decoded against a fully-bound pattern.
	decodeGround := func(b []byte) error {
		return DecodeTriples(b, rdf.IRI("s"), rdf.IRI("p"), rdf.IRI("o"), func(_, _, _ rdf.Term) bool { return true })
	}
	// header builds a batch prefix; edit copies good and patches it.
	header := func(mask byte, ndict, nrows uint32, payload ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32([]byte{mask}, ndict), nrows)
		return append(b, payload...)
	}
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	firstRow := batchHeader + 3 + len("http://ex/a")
	cases := map[string][]byte{
		"empty":              {},
		"wrong pattern":      edit(func(b []byte) []byte { b[0] = 0b111; return b }),
		"huge dictionary":    header(0b001, 1<<31, 1, 0),
		"huge row count":     header(0b001, 1, 1<<31, 0, kindBool, 1),
		"unknown kind":       header(0b001, 1, 1, 0, 99, 0),
		"unbound entry":      header(0b001, 1, 1, append([]byte{0, kindJSON, 15}, `{"t":"unbound"}`...)...),
		"index out of range": edit(func(b []byte) []byte { return append(b[:firstRow], 5) }),
		"more terms":         edit(func(b []byte) []byte { b[1] = 1; return b }),
		"fewer terms":        edit(func(b []byte) []byte { b[1] = 3; return b }),
		"stray bytes":        edit(func(b []byte) []byte { return append(b, 1) }),
		"huge ground count":  header(0b000, 0, 1<<31),
		"huge ground terms":  header(0b000, 1<<31, 0),
		"ground with cells":  header(0b000, 0, 1, 1),
	}
	for n := 1; n < len(good); n++ {
		cases[fmt.Sprintf("truncated at %d", n)] = good[:n]
	}
	for name, b := range cases {
		err := decode(b)
		if strings.Contains(name, "ground") {
			err = decodeGround(b)
		}
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Counts the bytes cannot back size nothing: 2^31 announced terms or
	// rows would be a 32 GiB dictionary. Bytes, not an allocation count,
	// so the race detector's bookkeeping does not move the reading.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = decode(cases["huge dictionary"])
	_ = decode(cases["huge row count"])
	_ = decodeGround(cases["huge ground count"])
	_ = decodeGround(cases["huge ground terms"])
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 64<<10 {
		t.Errorf("hostile counts cost %d bytes", spent)
	}
}

// TestGuardDecodeTriplesAllocsPerRow: the dictionary is decoded once, rows
// replay for free.
func TestGuardDecodeTriplesAllocsPerRow(t *testing.T) {
	g := rdf.NewGraph()
	var s, p, o []rdf.ID
	pred := g.Intern(rdf.IRI("http://ex/year"))
	for i := 0; i < 1000; i++ {
		s = append(s, g.Intern(rdf.IRI(fmt.Sprintf("http://ex/d%d", i))))
		p = append(p, pred)
		o = append(o, g.Intern(rdf.Integer(1990+i%30)))
	}
	blob := batchOf(t, g, [3]bool{true, false, true}, s, p, o)
	rows := 0
	allocs := testing.AllocsPerRun(5, func() {
		_ = DecodeTriples(blob, nil, rdf.IRI("http://ex/year"), nil, func(_, _, _ rdf.Term) bool { rows++; return true })
	})
	// 1 000 rows over 1 030 distinct terms: one box per term plus the
	// dictionary slice and its text.
	if allocs > 1030+4 {
		t.Errorf("%.0f allocations for 1000 rows over 1030 distinct terms", allocs)
	}
	t.Logf("%d-byte batch, %.0f allocations per decode", len(blob), allocs)
}

func FuzzDecodeTriples(f *testing.F) {
	g := rdf.NewGraph()
	pred := g.Intern(rdf.IRI("http://ex/p"))
	var s, p, o []rdf.ID
	for _, term := range everyKind() {
		id := g.Intern(term)
		s, p, o = append(s, id), append(p, pred), append(o, id)
		f.Add(batchOf(f, g, [3]bool{false, false, true}, []rdf.ID{id}, []rdf.ID{pred}, []rdf.ID{id}))
	}
	f.Add(batchOf(f, g, [3]bool{true, true, true}, s, p, o))
	f.Add(batchOf(f, g, [3]bool{true, false, true}, s, p, o))
	f.Add(batchOf(f, g, [3]bool{}, s[:1], p[:1], o[:1]))
	f.Add(batchOf(f, g, [3]bool{}, nil, nil, nil))
	f.Fuzz(func(t *testing.T, blob []byte) {
		if len(blob) == 0 {
			return
		}
		// Decode against the pattern the first byte claims, so the fuzzer
		// gets past the mask check.
		var pat [3]rdf.Term
		for c := range pat {
			if blob[0]&(1<<c) == 0 {
				pat[c] = rdf.IRI("http://ex/bound")
			}
		}
		rows := 0
		err := DecodeTriples(blob, pat[0], pat[1], pat[2], func(s, p, o rdf.Term) bool {
			if s == nil || p == nil || o == nil {
				t.Fatal("emitted a nil term")
			}
			rows++
			return true
		})
		if err == nil && rows > len(blob) {
			t.Fatalf("%d rows out of %d bytes", rows, len(blob))
		}
	})
}
