package rdf

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// buildPool holds IDs that agree in their low 1…6 chunks and differ
// only above them, up to 2³²−1, so a batch drawn from it puts keys on
// every one of the seven trie levels.
var buildPool = []ID{
	1, 2, 33, 1 + 1<<10, 1 + 1<<15, 1 + 1<<20, 1 + 1<<25,
	1 + 1<<30, 1 + 2<<30, 1 + 3<<30, 1<<31 - 1, 1<<32 - 1, 1<<32 - 33, 34, 65, 97,
}

// poolTriples reads three bytes per triple, each an index into
// buildPool.
func poolTriples(data []byte) []Triple {
	var ts []Triple
	for ; len(data) >= 3; data = data[3:] {
		at := func(i int) ID { return buildPool[int(data[i])%len(buildPool)] }
		ts = append(ts, Triple{at(0), at(1), at(2)})
	}
	return ts
}

// checkBuild builds ts both ways — Build, and a Tx adding the triples
// one by one — and requires the two graphs to agree, then edits both
// through a Tx (the built nodes carry tag 0, so the edit must
// path-copy) and requires that they agree again and that a snapshot
// of the built graph pinned before the edit did not move. The layout
// itself is compared with bare inserts', whose nodes carry tag 0 too.
func checkBuild(t *testing.T, ts []Triple) {
	t.Helper()
	added, bare := NewGraph(), NewGraph()
	tx := added.Begin()
	for _, tr := range ts {
		tx.addIDs(tr.S, tr.P, tr.O)
		bare.addIDs(tr.S, tr.P, tr.O)
	}
	tx.Commit()
	built := NewGraph()
	built.Build(slices.Clone(ts))
	probes := append(slices.Clone(ts), Triple{1, 2, 3}, Triple{1<<32 - 1, 1<<32 - 1, 1<<32 - 1})
	sameGraph(t, built, added, probes)
	b, w := built.cur(), bare.cur()
	for _, idx := range [][2]any{{b.spo, w.spo}, {b.pos, w.pos}, {b.osp, w.osp}, {b.subjects, w.subjects}} {
		if !reflect.DeepEqual(idx[0], idx[1]) {
			t.Fatal("Build laid an index out differently from per-triple inserts")
		}
	}

	pinned, want := built.Snapshot(), added.Snapshot()
	edit := func(g *Graph) {
		tx := g.Begin()
		for i, tr := range ts {
			if i%2 == 0 && tx.st.del(tx.tag, tr.S, tr.P, tr.O) {
				tx.changed++
			}
			tx.addIDs(tr.O, tr.S, tr.P)
		}
		tx.Commit()
	}
	edit(built)
	edit(added)
	sameGraph(t, built, added, probes)
	sameGraph(t, pinned, want, probes)
}

// sameGraph requires a and b to hold the same triples in the same
// layout: every Match shape of every probe yields the same triples in
// the same order, CountMatch the same number, and PredStats and Size
// agree.
func sameGraph(t *testing.T, a, b *Graph, probes []Triple) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("Size %d, want %d", a.Size(), b.Size())
	}
	collect := func(g *Graph, pat Triple) []Triple {
		var out []Triple
		g.Match(pat.S, pat.P, pat.O, func(x Triple) bool { out = append(out, x); return true })
		return out
	}
	for _, tr := range probes {
		for shape := range 8 {
			var pat Triple
			if shape&1 != 0 {
				pat.S = tr.S
			}
			if shape&2 != 0 {
				pat.P = tr.P
			}
			if shape&4 != 0 {
				pat.O = tr.O
			}
			if got, want := collect(a, pat), collect(b, pat); !slices.Equal(got, want) {
				t.Fatalf("Match%v yields %v, want %v", pat, got, want)
			}
			if got, want := a.CountMatch(pat.S, pat.P, pat.O), b.CountMatch(pat.S, pat.P, pat.O); got != want {
				t.Fatalf("CountMatch%v = %d, want %d", pat, got, want)
			}
		}
		n, ds, do := a.PredStats(tr.P)
		if wn, wds, wdo := b.PredStats(tr.P); n != wn || ds != wds || do != wdo {
			t.Fatalf("PredStats(%d) = %d,%d,%d, want %d,%d,%d", tr.P, n, ds, do, wn, wds, wdo)
		}
	}
}

func TestBuildMatchesTx(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int, pool []ID) []Triple {
		ts := make([]Triple, n)
		for i := range ts {
			ts[i] = Triple{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
		}
		return ts
	}
	every := make([]byte, 0, 3*len(buildPool))
	for i := range buildPool {
		every = append(every, byte(i), byte(len(buildPool)-1-i), byte(i*7))
	}
	for _, c := range []struct {
		name string
		ts   []Triple
	}{
		{"empty", nil},
		{"one", []Triple{{1, 2, 3}}},
		{"duplicates", []Triple{{1, 2, 3}, {1, 2, 3}, {4, 2, 3}, {1, 2, 3}, {4, 2, 3}}},
		{"every level", poolTriples(every)},
		{"deep pool", random(400, buildPool)},
		{"narrow pool", random(60, modelPool[:3])},
		{"gather shaped", gatherShaped(200)},
	} {
		t.Run(c.name, func(t *testing.T) { checkBuild(t, c.ts) })
	}
}

// TestBuildEmptyPublishesNothing: an empty batch leaves the graph as it
// was, the way a Tx that changed nothing commits no new version.
func TestBuildEmptyPublishesNothing(t *testing.T) {
	g := NewGraph()
	gen := g.Generation()
	g.Build(nil)
	if g.Generation() != gen || g.Size() != 0 {
		t.Fatalf("empty Build: generation %d → %d, size %d", gen, g.Generation(), g.Size())
	}
	g.Build([]Triple{{1, 2, 3}, {1, 2, 3}})
	if g.Generation() == gen || g.Size() != 1 {
		t.Fatalf("Build: generation %d → %d, size %d", gen, g.Generation(), g.Size())
	}
}

// FuzzBuild reads three pool indexes per triple (poolTriples); the
// oracle is a Tx adding the same triples one by one.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{0, 0, 0, 7, 7, 7, 8, 8, 8, 9, 9, 9, 11, 11, 11, 12, 12, 12})
	f.Add([]byte{0, 1, 7, 0, 1, 8, 0, 1, 9, 0, 1, 6, 7, 1, 0, 8, 1, 0, 0, 3, 7, 0, 3, 7})
	f.Add([]byte{1, 0, 2, 3, 0, 2, 4, 0, 2, 5, 0, 2, 6, 0, 2, 7, 0, 2, 8, 0, 2, 9, 0, 2, 10, 0, 2, 11, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBuild(t, poolTriples(data))
	})
}
