package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
)

func TestPartitionerEmptyTopology(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewPartitioner(n); !errors.Is(err, ErrEmptyTopology) {
			t.Fatalf("NewPartitioner(%d) = %v, want ErrEmptyTopology", n, err)
		}
	}
	if _, err := New(nil, nil); !errors.Is(err, ErrEmptyTopology) {
		t.Fatalf("New with no shards = %v, want ErrEmptyTopology", err)
	}
}

func TestPartitionerDeterministic(t *testing.T) {
	p, err := NewPartitioner(4)
	if err != nil {
		t.Fatal(err)
	}
	terms := []rdf.Term{
		rdf.IRI("http://ex/s1"),
		rdf.Blank("b7"),
		rdf.IRI("http://ex/s1"), // repeat: must agree with the first
	}
	if p.Owner(terms[0]) != p.Owner(terms[2]) {
		t.Fatal("same subject hashed to different shards")
	}
	for _, tm := range terms {
		o := p.Owner(tm)
		if o < 0 || o >= 4 {
			t.Fatalf("owner %d out of range", o)
		}
	}
}

// TestKeyHashGolden pins placement: the hashes and owners below are the
// FNV-1a of each term's Key() bytes, and a durable shard's contents
// depend on them never moving.
func TestKeyHashGolden(t *testing.T) {
	golden := []struct {
		term          rdf.Term
		hash          uint64
		of3, of4, of8 int
	}{
		{rdf.IRI("http://ex/s1"), 0x287e5c2f08edb789, 0, 1, 1},
		{rdf.IRI("http://bench/doc0"), 0x35d2112bad532cb2, 0, 2, 2},
		{rdf.IRI("http://bench/author12345"), 0xb4726dcdae2ac836, 1, 2, 6},
		{rdf.IRI(""), 0x8098a07b4c86e3f, 1, 3, 7},
		{rdf.IRI("http://example.org/ünïcode"), 0x8903abe56e5ae108, 1, 0, 0},
		{rdf.Blank("b0"), 0xb5d5f344f9308e5e, 2, 2, 6},
		{rdf.Blank("g17"), 0x1187bc335f2396c5, 1, 1, 5},
		{rdf.Blank(""), 0x9538c07b5e11d1c, 0, 0, 4},
		{rdf.Blank("http://ex/s1"), 0xfe6c35f7078f3f1a, 1, 2, 2},
	}
	for _, g := range golden {
		if h := KeyHash(g.term); h != g.hash {
			t.Errorf("KeyHash(%v) = %#x, want %#x", g.term, h, g.hash)
		}
		for _, c := range []struct{ n, want int }{{3, g.of3}, {4, g.of4}, {8, g.of8}} {
			p, _ := NewPartitioner(c.n)
			if got := p.Owner(g.term); got != c.want {
				t.Errorf("Owner(%v) over %d shards = %d, want %d", g.term, c.n, got, c.want)
			}
		}
	}
}

// TestKeyHashIsFNVOfKey: for every kind, KeyHash is the FNV-1a hash of
// the term's key bytes.
func TestKeyHashIsFNVOfKey(t *testing.T) {
	terms := []rdf.Term{
		rdf.IRI("http://ex/a"), rdf.IRI(""), rdf.IRI("http://ex/ä>"),
		rdf.Blank("b1"), rdf.Blank(""),
		rdf.String{Val: "x\"y\n"}, rdf.String{Val: "chat", Lang: "fr"},
		rdf.Integer(-42), rdf.Float(math.NaN()), rdf.Float(math.Copysign(0, -1)), rdf.Boolean(true),
		rdf.DateTime{T: time.Date(2020, 1, 2, 3, 4, 5, 123456789, time.FixedZone("", 3600))},
		rdf.Typed{Lexical: "a\tb", Datatype: "http://ex/dt"},
		rdf.NewArray(array.NewInt(3)),
	}
	for _, tm := range terms {
		h := fnv.New64a()
		h.Write([]byte(tm.Key()))
		if got, want := KeyHash(tm), h.Sum64(); got != want {
			t.Errorf("KeyHash(%v) = %#x, FNV-1a of %q is %#x", tm, got, tm.Key(), want)
		}
	}
}

// TestPartitionerSkew bounds the hash skew: over many distinct
// subjects every shard's share must stay within ±25% of the mean —
// a regression guard for the partitioning function, since a skewed
// hash silently turns scale-out into a single hot shard.
func TestPartitionerSkew(t *testing.T) {
	const subjects, shards = 10000, 4
	p, err := NewPartitioner(shards)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for i := 0; i < subjects; i++ {
		counts[p.Owner(rdf.IRI(fmt.Sprintf("http://ex/subject-%d", i)))]++
	}
	mean := float64(subjects) / shards
	for i, n := range counts {
		if f := float64(n); f < 0.75*mean || f > 1.25*mean {
			t.Fatalf("shard %d holds %d of %d subjects (mean %.0f): skew out of bounds %v",
				i, n, subjects, mean, counts)
		}
	}
}
