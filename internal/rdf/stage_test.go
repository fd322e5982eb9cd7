package rdf

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// TestStageAddGraph: a Stage interns into its graph's dictionary, and
// Tx.AddGraph stages its triples by ID — taken whole into an empty
// transaction, added one by one to a staged state that holds triples,
// under the default delta cap and under a cap of four — with Changed,
// Size and the recorded Ops exact, the committed graph the union of
// both sides with the counts and statistics of the same triples added
// one by one, and the stage unchanged by later writes to the graph.
func TestStageAddGraph(t *testing.T) {
	for _, lowCap := range []bool{false, true} {
		for seed := int64(1); seed <= 30; seed++ {
			t.Run(fmt.Sprintf("lowcap=%v/seed%d", lowCap, seed), func(t *testing.T) {
				if lowCap {
					lowerDeltaCap(t, 4)
				}
				stageAddGraph(t, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

func stageAddGraph(t *testing.T, rng *rand.Rand) {
	term := func() Term { return IRI(fmt.Sprintf("http://ex/t%d", rng.Intn(12))) }
	g := NewGraph()
	g.NewBlank()
	held := map[Triple]struct{}{}
	if rng.Intn(3) != 0 {
		for range rng.Intn(40) {
			s, p, o := term(), term(), term()
			addTriple(g, s, p, o)
			held[Triple{g.Intern(s), g.Intern(p), g.Intern(o)}] = struct{}{}
		}
	}
	stage := g.Stage()
	if stage.BlankNo() != g.BlankNo() {
		t.Fatalf("the stage's blank counter is %d, the graph's %d", stage.BlankNo(), g.BlankNo())
	}
	staged := map[Triple]struct{}{}
	tx := stage.Begin()
	for range 1 + rng.Intn(60) {
		tx.Add(term(), term(), term())
	}
	tx.Commit()
	// Deletes leave the stage with tombstones or a smaller base.
	stage.Match(0, 0, 0, func(tr Triple) bool {
		if rng.Intn(5) == 0 {
			deleteTripleIDs(stage, tr.S, tr.P, tr.O)
		}
		return true
	})
	stage.Match(0, 0, 0, func(tr Triple) bool {
		if g.TermOf(tr.S) != stage.TermOf(tr.S) {
			t.Fatalf("stage ID %d is %v in the graph's dictionary", tr.S, g.TermOf(tr.S))
		}
		staged[tr] = struct{}{}
		return true
	})
	_, stageSum := digest(stage)

	want := maps.Clone(held)
	maps.Copy(want, staged)
	tx = g.Begin()
	tx.Record(true)
	tx.AddGraph(stage)
	if tx.Changed() != len(want)-len(held) || tx.Size() != len(want) {
		t.Fatalf("Changed %d, Size %d; want %d new of %d", tx.Changed(), tx.Size(), len(want)-len(held), len(want))
	}
	replayed := maps.Clone(held)
	for _, op := range tx.Ops() {
		tr := Triple{op.S, op.P, op.O}
		if _, had := replayed[tr]; op.Kind != OpAdd || had {
			t.Fatalf("op %v on %v is not an effective add", op.Kind, tr)
		}
		replayed[tr] = struct{}{}
	}
	if !maps.Equal(replayed, want) {
		t.Fatalf("replaying Ops gives %d triples, want %d", len(replayed), len(want))
	}
	tx.Commit()
	if g.Frozen() {
		t.Fatal("the graph is read-only after taking a stage's version")
	}

	oracle := g.Stage()
	for tr := range want {
		addTripleIDs(oracle, tr.S, tr.P, tr.O)
	}
	_, wantSum := digest(oracle)
	if n, sum := digest(g); n != len(want) || sum != wantSum {
		t.Fatalf("the graph holds %d triples, want %d", n, len(want))
	}
	for id := ID(1); int(id) <= g.dict.len(); id++ {
		for _, pat := range [][3]ID{{id, 0, 0}, {0, id, 0}, {0, 0, id}} {
			if got, w := g.CountMatch(pat[0], pat[1], pat[2]), oracle.CountMatch(pat[0], pat[1], pat[2]); got != w {
				t.Fatalf("CountMatch%v = %d, want %d", pat, got, w)
			}
		}
		c, s, o := g.PredStats(id)
		wc, ws, wo := oracle.PredStats(id)
		if c != wc || s != ws || o != wo {
			t.Fatalf("PredStats(%d) = %d %d %d, want %d %d %d", id, c, s, o, wc, ws, wo)
		}
	}

	// Writes to the graph leave the stage's version alone.
	tx = g.Begin()
	for tr := range staged {
		tx.deleteIDs(tr.S, tr.P, tr.O)
		break
	}
	tx.Add(IRI("http://ex/new"), IRI("http://ex/p"), Integer(1))
	tx.Commit()
	if n, sum := digest(stage); n != len(staged) || sum != stageSum {
		t.Fatalf("a write to the graph changed the stage: %d triples, want %d", n, len(staged))
	}
}

// TestAddGraphRefusesForeignDictionary: a graph over a dictionary of its
// own has IDs that name other terms, so AddGraph panics and stages
// nothing.
func TestAddGraphRefusesForeignDictionary(t *testing.T) {
	g, other := NewGraph(), NewGraph()
	addTriple(other, IRI("http://ex/s"), IRI("http://ex/p"), Integer(1))
	tx := g.Begin()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AddGraph took a graph over another dictionary")
			}
		}()
		tx.AddGraph(other)
	}()
	if tx.Changed() != 0 {
		t.Fatalf("a refused AddGraph staged %d triples", tx.Changed())
	}
	tx.Commit()
	if g.Size() != 0 {
		t.Fatalf("the graph holds %d triples", g.Size())
	}
}
