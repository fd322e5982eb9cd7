package protocol

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
)

func TestTermRoundTrips(t *testing.T) {
	a, _ := array.FromInts([]int64{1, 2, 3, 4, 5, 6}, 2, 3)
	terms := []rdf.Term{
		rdf.IRI("http://x"),
		rdf.Blank("b1"),
		rdf.String{Val: "hello"},
		rdf.String{Val: "hej", Lang: "sv"},
		rdf.Integer(-42),
		rdf.Float(2.5),
		// JSON has no number for these: they travel as lexical forms.
		rdf.Float(math.NaN()),
		rdf.Float(math.Inf(1)),
		rdf.Float(math.Inf(-1)),
		rdf.Boolean(true),
		rdf.Boolean(false),
		rdf.DateTime{T: time.Date(2012, 4, 1, 12, 30, 0, 0, time.UTC)},
		rdf.Typed{Lexical: "x", Datatype: rdf.IRI("http://dt")},
		rdf.NewArray(a),
		nil,
	}
	for _, term := range terms {
		wire, err := EncodeTerm(term)
		if err != nil {
			t.Fatalf("encode %v: %v", term, err)
		}
		// Must survive JSON marshalling, since that is the wire format.
		js, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var back Term
		if err := json.Unmarshal(js, &back); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeTerm(back)
		if err != nil {
			t.Fatalf("decode %v: %v", term, err)
		}
		switch {
		case term == nil:
			if got != nil {
				t.Fatal("nil should round trip")
			}
		case term.Kind() == rdf.KindArray:
			eq, _ := array.Equal(term.(rdf.Array).A, got.(rdf.Array).A)
			if !eq {
				t.Fatal("array mismatch")
			}
		case term.Kind() == rdf.KindDateTime:
			if !got.(rdf.DateTime).T.Equal(term.(rdf.DateTime).T) {
				t.Fatalf("datetime %v != %v", got, term)
			}
		default:
			if got.Key() != term.Key() {
				t.Fatalf("%v != %v", got, term)
			}
		}
	}
}

func TestDecodeTermErrors(t *testing.T) {
	bad := []Term{
		{T: "nope"},
		{T: "datetime", S: "not a time"},
		{T: "float", S: "1.5"}, // a finite double is a JSON number
		{T: "float", S: "Infinity"},
		{T: "array", Array: "!!!notbase64!!!"},
		{T: "array", Array: "aGVsbG8="}, // valid base64, invalid payload
	}
	for _, w := range bad {
		if _, err := DecodeTerm(w); err == nil {
			t.Fatalf("expected error for %+v", w)
		}
	}
}

func TestArrayPayloadRoundTrip(t *testing.T) {
	a, _ := array.FromFloats([]float64{1.25, -2.5}, 2)
	s, err := EncodeArray(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArray(s)
	if err != nil {
		t.Fatal(err)
	}
	eq, _ := array.Equal(a, back)
	if !eq {
		t.Fatal("mismatch")
	}
	if _, err := DecodeArray("%%%"); err == nil {
		t.Fatal("bad base64 should fail")
	}
}
