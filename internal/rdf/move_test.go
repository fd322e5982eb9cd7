package rdf

import (
	"errors"
	"testing"

	"scisparql/internal/array"
	"scisparql/internal/storage"
)

// storeOpen is the move MoveArrays takes in core: store on mem, open the
// stored copy.
func storeOpen(mem *storage.Memory, calls *int) func(*array.Array) (*array.Array, error) {
	return func(a *array.Array) (*array.Array, error) {
		*calls++
		id, err := mem.Store(a, 0)
		if err != nil {
			return nil, err
		}
		return mem.Open(id)
	}
}

// MoveArrays moves each array the triples hold once, whatever number of
// triples share it, leaves an array no triple holds where it is, and
// rebinds IDs without touching a triple.
func TestMoveArraysRebindsIDs(t *testing.T) {
	g := NewGraph()
	p := IRI("http://ex/data")
	shared, _ := array.FromFloats([]float64{1, 2, 3}, 3)
	own, _ := array.FromFloats([]float64{4, 5}, 2)
	gone, _ := array.FromFloats([]float64{6}, 1)
	addTriple(g, IRI("http://ex/x"), p, NewArray(shared))
	addTriple(g, IRI("http://ex/y"), p, NewArray(shared))
	addTriple(g, IRI("http://ex/z"), p, NewArray(own))
	addTriple(g, IRI("http://ex/w"), p, NewArray(gone))
	deleteTriple(g, IRI("http://ex/w"), p, NewArray(gone))
	sharedID, _ := g.Lookup(NewArray(shared))
	goneID, _ := g.Lookup(NewArray(gone))
	size, gen, terms := g.Size(), g.Generation(), g.DictStats().Terms

	calls := 0
	n, err := g.MoveArrays(storeOpen(storage.NewMemory(), &calls))
	if err != nil || n != 3 || calls != 2 {
		t.Fatalf("moved %d triples with %d calls (err %v), want 3 with 2", n, calls, err)
	}
	if g.Size() != size || g.Generation() != gen+1 || g.DictStats().Terms != terms {
		t.Fatalf("size %d, generation %d, terms %d; want %d, %d, %d", g.Size(), g.Generation(), g.DictStats().Terms, size, gen+1, terms)
	}
	moved := g.TermOf(sharedID).(Array)
	if moved.A.Base.Resident() {
		t.Fatal("the shared array is still resident")
	}
	if id, ok := g.Lookup(moved); !ok || id != sharedID {
		t.Fatalf("the moved term looks up as %d, %v; want %d", id, ok, sharedID)
	}
	if _, ok := g.Lookup(NewArray(shared)); ok {
		t.Fatal("the resident term still looks up")
	}
	if !g.TermOf(goneID).(Array).A.Base.Resident() {
		t.Fatal("an array no triple holds was moved")
	}
	if v, err := moved.A.At(2); err != nil || v.Float() != 3 {
		t.Fatalf("element 2: %v, %v", v, err)
	}

	// Nothing is left to move: no call, no new generation.
	calls = 0
	if n, err := g.MoveArrays(storeOpen(storage.NewMemory(), &calls)); n != 0 || err != nil || calls != 0 || g.Generation() != gen+1 {
		t.Fatalf("second move: %d, %v, %d calls, generation %d", n, err, calls, g.Generation())
	}
}

// A failing move keeps what moved before it and returns the error.
func TestMoveArraysKeepsWhatMovedBeforeAFailure(t *testing.T) {
	g := NewGraph()
	p := IRI("http://ex/data")
	for _, s := range []IRI{"http://ex/a", "http://ex/b"} {
		a, _ := array.FromFloats([]float64{1}, 1)
		addTriple(g, s, p, NewArray(a))
	}
	mem, calls, fail := storage.NewMemory(), 0, errors.New("full")
	n, err := g.MoveArrays(func(a *array.Array) (*array.Array, error) {
		if calls == 1 {
			return nil, fail
		}
		return storeOpen(mem, &calls)(a)
	})
	if n != 1 || !errors.Is(err, fail) {
		t.Fatalf("moved %d, err %v; want 1, %v", n, err, fail)
	}
	var resident []bool
	g.MatchTerms(nil, p, nil, func(_, _, o Term) bool {
		resident = append(resident, o.(Array).A.Base.Resident())
		return true
	})
	if len(resident) != 2 || resident[0] == resident[1] {
		t.Fatalf("resident %v, want one of each", resident)
	}
}

// DictStats.Bytes counts a resident array's elements, and gives them
// back when MoveArrays rebinds its ID.
func TestDictBytesCountResidentArrays(t *testing.T) {
	const elems = 1 << 10
	g := NewGraph()
	addTriple(g, IRI("http://ex/s"), IRI("http://ex/data"), IRI("http://ex/o"))
	before := g.DictStats().Bytes
	a := array.NewFloat(elems)
	addTriple(g, IRI("http://ex/s"), IRI("http://ex/data"), NewArray(a))
	resident := g.DictStats().Bytes
	if grew := resident - before; grew < elems*array.ElemSize {
		t.Fatalf("a resident array of %d bytes grew the dictionary by %d", elems*array.ElemSize, grew)
	}
	calls := 0
	if _, err := g.MoveArrays(storeOpen(storage.NewMemory(), &calls)); err != nil {
		t.Fatal(err)
	}
	if after := g.DictStats().Bytes; resident-after < elems*array.ElemSize || after <= before {
		t.Fatalf("bytes %d → %d → %d: the move should give the elements back and keep the entry", before, resident, after)
	}
}
