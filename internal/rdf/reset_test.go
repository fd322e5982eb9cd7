package rdf

import (
	"math"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"scisparql/internal/array"
)

// otherTerm is a Term of another implementation: the dictionary keys it
// by Key(), as it does arrays.
type otherTerm string

func (o otherTerm) Kind() Kind     { return KindTyped }
func (o otherTerm) Key() string    { return "other:" + string(o) }
func (o otherTerm) String() string { return string(o) }

// oneOfEach is a term of every kind the identity index keys apart.
func oneOfEach() []Term {
	return []Term{
		IRI("http://ex/a"),
		Blank("b1"),
		String{Val: "plain"},
		String{Val: "chat", Lang: "fr"},
		Integer(42),
		Float(math.NaN()),
		Float(0),
		Float(math.Copysign(0, -1)),
		Boolean(true),
		Boolean(false),
		DateTime{T: time.Date(2020, 1, 2, 3, 4, 5, 6, time.UTC)},
		Typed{Lexical: "x", Datatype: IRI("http://ex/dt")},
		NewArray(array.NewInt(4)),
		otherTerm("o"),
	}
}

// TestResetForgetsEveryTerm: after Reset no term of any kind is found,
// IDs restart at 1, and the dictionary counts and holds nothing — for a
// built graph and for one that only interned terms (a gather that failed
// before Build).
func TestResetForgetsEveryTerm(t *testing.T) {
	for _, build := range []bool{true, false} {
		g := NewGraph()
		terms := oneOfEach()
		for i, term := range terms {
			if id := g.Intern(term); id != ID(i+1) {
				t.Fatalf("Intern(%v) = %d, want %d", term, id, i+1)
			}
		}
		if build {
			g.Build([]Triple{{1, 1, 2}, {3, 1, 4}})
		}
		g.Reset()
		for _, term := range terms {
			if id, ok := g.Lookup(term); ok {
				t.Errorf("build %v: Lookup(%v) after Reset = %d", build, term, id)
			}
		}
		if st := g.DictStats(); st.Terms != 0 || st.Bytes != 0 || g.Size() != 0 || g.Frozen() {
			t.Fatalf("build %v: after Reset: %+v, size %d, frozen %v", build, st, g.Size(), g.Frozen())
		}
		// The kept term array holds none of them: a term pins the memory
		// its text shares (a gather leg's batch).
		if p := g.dict.terms.Load(); p == nil || slices.ContainsFunc((*p)[:cap(*p)], func(t Term) bool { return t != nil }) {
			t.Fatalf("build %v: after Reset the term array is %v", build, p)
		}
		slices.Reverse(terms)
		for i, term := range terms {
			if id := g.Intern(term); id != ID(i+1) || g.TermOf(id).Key() != term.Key() {
				t.Fatalf("build %v: Intern(%v) after Reset = %d, want %d", build, term, id, i+1)
			}
		}
	}
}

// TestResetMovesGenerationOn: the generation strictly increases across
// Reset, so nothing keyed on it takes the new contents for the old.
func TestResetMovesGenerationOn(t *testing.T) {
	g := NewGraph()
	last := g.Generation()
	for range 3 {
		g.Build([]Triple{{g.Intern(IRI("http://ex/s")), g.Intern(IRI("http://ex/p")), g.Intern(Integer(1))}})
		built := g.Generation()
		g.Reset()
		if built <= last || g.Generation() <= built {
			t.Fatalf("generations %d, %d (built), %d (reset): not increasing", last, built, g.Generation())
		}
		last = g.Generation()
	}
	g.Reset() // a still-empty graph
	if g.Generation() <= last {
		t.Fatalf("Reset of an empty graph kept generation %d", last)
	}
}

// TestResetNumericOfReusedID: NumericOf answers for the term an ID names
// now, not the one it named before Reset — a stale memo would make a
// gather's SUM or AVG wrong.
func TestResetNumericOfReusedID(t *testing.T) {
	g := NewGraph()
	for _, c := range []struct {
		term    Term
		numeric bool
		want    float64
	}{
		{Integer(5), true, 5},
		{Float(2.5), true, 2.5},
		{IRI("http://ex/not-a-number"), false, 0},
		{Integer(7), true, 7},
	} {
		id := g.Intern(c.term)
		v, ok := g.NumericOf(id)
		if id != 1 || ok != c.numeric || ok && v.Float() != c.want {
			t.Fatalf("NumericOf(%d) for %v = %v, %v", id, c.term, v, ok)
		}
		g.Reset()
	}
}

// TestResetPanicsOnLiveGraphs: Reset is for graphs Build filled or that
// are still empty; a live graph with triples and a snapshot refuse it.
func TestResetPanicsOnLiveGraphs(t *testing.T) {
	live := NewGraph()
	addTriple(live, IRI("http://ex/s"), IRI("http://ex/p"), Integer(1))
	for name, g := range map[string]*Graph{"live": live, "snapshot": NewGraph().Snapshot()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset of a %s graph did not panic", name)
				}
			}()
			g.Reset()
		}()
	}
	if live.Size() != 1 || !live.Has(IRI("http://ex/s"), IRI("http://ex/p"), Integer(1)) {
		t.Fatal("a refused Reset changed the live graph")
	}
}

// TestBuildAfterResetMatchesTx: a graph rebuilt into a kept run array —
// larger, smaller and equal batches in turn — holds exactly what a Tx
// adding the batch holds, and nothing of the batch before.
func TestBuildAfterResetMatchesTx(t *testing.T) {
	g := NewGraph()
	for _, ts := range [][]Triple{gatherShaped(300), gatherShaped(20), gatherShaped(100), gatherShaped(100), poolTriples([]byte{0, 1, 2, 3, 4, 5, 0, 1, 2})} {
		g.Reset()
		g.Build(slices.Clone(ts))
		added := NewGraph()
		tx := added.Begin()
		for _, tr := range ts {
			tx.AddIDs(tr.S, tr.P, tr.O)
		}
		tx.Commit()
		sameGraph(t, g, added, append(slices.Clone(ts), Triple{1, 2, 3}))
	}
}

// TestResetDropsOversizedScratch: past maxScratch rows or terms, Reset
// keeps nothing for the next Build — neither the run array nor the term
// array nor the identity table — so one huge gather neither pins its
// memory in a pool nor makes every later Reset clear it.
func TestResetDropsOversizedScratch(t *testing.T) {
	for _, n := range []int{maxScratch, maxScratch + 1} {
		g := NewGraph()
		ts := make([]Triple, n)
		for i := range ts {
			id := g.Intern(IRI("http://ex/" + strconv.Itoa(i)))
			ts[i] = Triple{id, id, id}
		}
		g.Build(ts)
		g.Reset()
		spare := g.spare != nil
		table := g.dict.index.slots != nil
		kept := spare && g.dict.terms.Load() != nil && table
		dropped := !spare && g.dict.terms.Load() == nil && !table
		if n <= maxScratch && !kept || n > maxScratch && !dropped {
			t.Errorf("%d rows and terms: kept base %v, terms %v, identity table %v", n,
				spare, g.dict.terms.Load() != nil, table)
		}
		if table && (g.dict.index.used != 0 || slices.ContainsFunc(g.dict.index.slots, func(s uint64) bool { return s != 0 })) {
			t.Errorf("%d terms: Reset kept a used identity table", n)
		}
	}
}

// TestGuardBuildAfterResetAllocatesNoRuns: a Build after Reset of a
// graph built from as many rows or more lays its runs, key directories
// and ID index out in the arrays Reset kept, and sorts in the buffer the
// last Build left in sortBuf, so it allocates no run array, no index and no sort buffer:
// 112 B (the published state), where a new graph's Build of these rows
// takes 218 KB. The bound leaves room for what
// other goroutines allocate meanwhile (a 5 KiB reading was seen once).
func TestGuardBuildAfterResetAllocatesNoRuns(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator overhead is not what this measures")
	}
	ts := gatherShaped(2000)
	buf := make([]Triple, len(ts))
	g := NewGraph()
	g.Build(slices.Clone(gatherShaped(2400)))
	for _, n := range []int{len(ts), len(ts) / 2, len(ts)} {
		g.Reset()
		copy(buf, ts[:n])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g.Build(buf[:n])
		runtime.ReadMemStats(&after)
		spent := after.TotalAlloc - before.TotalAlloc
		t.Logf("Build of %d rows after Reset: %d B", n, spent)
		if spent > 16<<10 {
			t.Errorf("Build of %d rows after Reset allocated %d B, want <= 16 KiB", n, spent)
		}
		if g.Size() != n {
			t.Fatalf("Build of %d distinct rows holds %d", n, g.Size())
		}
	}
}
