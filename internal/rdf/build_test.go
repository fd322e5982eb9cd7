package rdf

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
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

// checkBuild builds ts four ways — Build, one-triple transactions adding
// the triples one by one (the first builds a one-row base, the rest go
// into the tries), one-triple transactions under a delta cap of
// four that reach them through compactions, with decoys added and
// deleted and every other triple deleted and added back, and a Tx under
// that cap whose adds mostly go to its log (bulk) — and requires the
// graphs to agree on every probe (sameGraph): each triple, and beside it
// two mostly absent ones, its IDs moved by one or by a chunk and its
// components rotated.
func checkBuild(t *testing.T, ts []Triple) {
	t.Helper()
	added := NewGraph()
	for _, tr := range ts {
		addTripleIDs(added, tr.S, tr.P, tr.O)
	}
	built := NewGraph()
	built.Build(slices.Clone(ts))
	probes := append(slices.Clone(ts), Triple{1, 2, 3}, Triple{1<<32 - 1, 1<<32 - 1, 1<<32 - 1})
	for _, tr := range ts {
		probes = append(probes, Triple{tr.S + 1, tr.P - 1, tr.O + 32}, Triple{tr.O, tr.S, tr.P})
	}
	sameGraph(t, built, added, probes)
	sameGraph(t, compacting(t, ts), added, probes)
	sameGraph(t, bulk(t, ts), added, probes)
}

// bulk reaches ts's triples through one Tx under a delta cap of four.
// Begun on an empty graph, it logs every triple twice; then every third
// is deleted — which folds the log into the staged state — and added
// back twice, into the tries until the delta passes the cap and into the
// log after. Size and Changed must count each effective write once
// before Commit.
func bulk(t *testing.T, ts []Triple) *Graph {
	lowerDeltaCap(t, 4)
	g := NewGraph()
	tx := g.Begin()
	for _, tr := range slices.Concat(ts, ts) {
		tx.AddIDs(tr.S, tr.P, tr.O)
	}
	want := len(sortedSet(slices.Clone(ts), make([]Triple, len(ts))))
	changed := want
	for i, tr := range ts {
		if i%3 != 0 {
			continue
		}
		if !tx.deleteIDs(tr.S, tr.P, tr.O) {
			t.Fatalf("Delete%v: absent from the staged state", tr)
		}
		tx.AddIDs(tr.S, tr.P, tr.O)
		tx.AddIDs(tr.S, tr.P, tr.O)
		changed += 2
	}
	if tx.Size() != want || tx.Changed() != changed {
		t.Fatalf("Tx.Size %d, Changed %d; want %d, %d", tx.Size(), tx.Changed(), want, changed)
	}
	tx.Commit()
	return g
}

// compacting reaches ts's triples by one-triple transactions under a
// delta cap of four, so the graph it returns holds them as a base, adds and
// tombstones.
func compacting(t *testing.T, ts []Triple) *Graph {
	lowerDeltaCap(t, 4)
	g := NewGraph()
	in := map[Triple]bool{}
	for _, tr := range ts {
		in[tr] = true
	}
	for _, tr := range ts {
		addTripleIDs(g, tr.S, tr.P, tr.O)
		addTripleIDs(g, tr.O, tr.S, tr.P)
	}
	for i, tr := range ts {
		if decoy := (Triple{tr.O, tr.S, tr.P}); !in[decoy] {
			deleteTripleIDs(g, decoy.S, decoy.P, decoy.O)
		}
		if i%2 == 0 {
			deleteTripleIDs(g, tr.S, tr.P, tr.O)
		}
	}
	for i, tr := range ts {
		if i%2 == 0 {
			addTripleIDs(g, tr.S, tr.P, tr.O)
		}
	}
	return g
}

// sameGraph requires a and b to hold the same triples in the same
// order: every Match shape of every probe yields the same triples in
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

// TestBuiltGraphIsReadOnly: a built graph is read-only like a snapshot —
// every write panics, a second Build too, and Snapshot returns the
// graph itself.
func TestBuiltGraphIsReadOnly(t *testing.T) {
	g := NewGraph()
	s, p, o := g.Intern(IRI("http://ex/s")), g.Intern(IRI("http://ex/p")), g.Intern(Integer(1))
	g.Build([]Triple{{s, p, o}})
	for name, write := range map[string]func(){
		"Add":    func() { addTriple(g, IRI("http://ex/s"), IRI("http://ex/p"), Integer(2)) },
		"Delete": func() { deleteTriple(g, IRI("http://ex/s"), IRI("http://ex/p"), Integer(1)) },
		"Begin":  func() { g.Begin() },
		"Clear":  func() { g.Clear() },
		"Build":  func() { g.Build([]Triple{{s, p, s}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a built graph did not panic", name)
				}
			}()
			write()
		}()
	}
	if !g.Frozen() || g.Snapshot() != g {
		t.Fatalf("built graph: Frozen %v, Snapshot returns itself %v", g.Frozen(), g.Snapshot() == g)
	}
	if g.Size() != 1 || !g.HasIDs(s, p, o) {
		t.Fatal("a refused write changed the built graph")
	}
}

// TestBuiltMatchStopsWhenCancelled: an enumeration of a built graph polls
// its context as a trie walk does, once every ctxCheckEvery triples.
func TestBuiltMatchStopsWhenCancelled(t *testing.T) {
	g := NewGraph()
	g.Build(gatherShaped(2000))
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	g.MatchCtx(ctx, 0, 0, 0, func(Triple) bool {
		if n++; n == 10 {
			cancel()
		}
		return true
	})
	if n > ctxCheckEvery {
		t.Fatalf("cancelled enumeration yielded %d triples, want <= %d", n, ctxCheckEvery)
	}
}

// TestConcurrentBuilds: Builds on several graphs at once, each graph
// Reset and built again from batches of varying size, pass the sort
// buffer between them through sortSlot and their graphs, and every
// built graph holds exactly its batch, in trie order. Run it under
// -race.
func TestConcurrentBuilds(t *testing.T) {
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := NewGraph()
			for round := range 50 {
				ts := gatherShaped(50 + 40*((w+round)%5))
				want := sortedSet(slices.Clone(ts), make([]Triple, len(ts)))
				g.Reset()
				g.Build(ts)
				var got []Triple
				g.Match(0, 0, 0, func(x Triple) bool { got = append(got, x); return true })
				if !slices.Equal(got, want) {
					t.Errorf("builder %d, round %d: %d triples, want %d", w, round, len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzBuild reads three pool indexes per triple (poolTriples); the
// oracle is one-triple transactions adding the same triples one by one.
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

// TestFillMatchesSortedSet: a base enumerates exactly its batch. For
// each of 48 generated batches — a one-row batch, IDs within one chunk
// and past 2¹⁷ and 2²⁴ (keys past lead's cap, found in the directory),
// and duplicates — three graphs hold the batch: a new graph's Build, a
// Build after Reset into one graph reused across the batches, and a
// base whose delta both adds and tombstones. For all 8 bound masks of
// each probe, Match must yield the batch's sorted set filtered by the
// pattern, in the trie order of the permutation it leads (an oracle
// sort of its own), and CountMatch and PredStats must count that set.
func TestFillMatchesSortedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reused := NewGraph()
	for batch := range 48 {
		n, span := 1+rng.Intn(3000), []int{30, 1 << 12, 1 << 17, 1 << 24}[batch%4]
		if batch == 0 {
			n = 1
		}
		ts := make([]Triple, n)
		for i := range ts {
			ts[i] = Triple{ID(1 + rng.Intn(span)), ID(1 + rng.Intn(span/8+1)), ID(1 + rng.Intn(span))}
			if i > 0 && rng.Intn(5) == 0 {
				ts[i] = ts[rng.Intn(i)]
			}
		}
		set := sortedSet(slices.Clone(ts), make([]Triple, n))
		built := NewGraph()
		built.Build(slices.Clone(ts))
		reused.Reset()
		reused.Build(slices.Clone(ts))
		probes := []Triple{{}, {ID(span + 1), ID(span + 1), ID(span + 1)}}
		for range 12 {
			x := set[rng.Intn(len(set))]
			probes = append(probes, x, Triple{x.O, x.S, x.P})
		}
		for name, g := range map[string]*Graph{"built": built, "after reset": reused, "delta": withDelta(t, set)} {
			for _, x := range probes {
				for mask := range 8 {
					pat := Triple{x.S * ID(mask&1), x.P * ID(mask>>1&1), x.O * ID(mask>>2&1)}
					want := trieFilter(set, pat)
					var got []Triple
					g.Match(pat.S, pat.P, pat.O, func(t Triple) bool { got = append(got, t); return true })
					if !slices.Equal(got, want) {
						t.Fatalf("batch %d (%d distinct, IDs below %d), %s: Match%v yields %d triples, want %d", batch, len(set), span, name, pat, len(got), len(want))
					}
					if c := g.CountMatch(pat.S, pat.P, pat.O); c != len(want) {
						t.Fatalf("batch %d, %s: CountMatch%v = %d, want %d", batch, name, pat, c, len(want))
					}
				}
				if x.P == 0 {
					continue
				}
				subjects, objects := map[ID]bool{}, map[ID]bool{}
				for _, y := range trieFilter(set, Triple{P: x.P}) {
					subjects[y.S], objects[y.O] = true, true
				}
				if c, ds, do := g.PredStats(x.P); ds != len(subjects) || do != len(objects) || c != g.CountMatch(0, x.P, 0) {
					t.Fatalf("batch %d, %s: PredStats(%d) = %d,%d,%d, want %d distinct subjects and %d objects", batch, name, x.P, c, ds, do, len(subjects), len(objects))
				}
			}
		}
	}
}

// withDelta returns a graph of set whose state is a base and a delta of
// both kinds: one Tx commits every other triple of set with decoys into
// a base, and a second adds the rest and deletes the decoys.
func withDelta(t *testing.T, set []Triple) *Graph {
	in := map[Triple]bool{}
	for _, x := range set {
		in[x] = true
	}
	g, tx := NewGraph(), (*Tx)(nil)
	for round := range 2 {
		tx = g.Begin()
		for i, x := range set {
			if decoy := (Triple{x.O, x.S, x.P}); !in[decoy] && i%3 == 0 {
				if round == 0 {
					tx.AddIDs(decoy.S, decoy.P, decoy.O)
				} else {
					tx.deleteIDs(decoy.S, decoy.P, decoy.O)
				}
			}
			if i%2 == round {
				tx.AddIDs(x.S, x.P, x.O)
			}
		}
		tx.Commit()
	}
	if st := g.cur(); len(set) > 8 && (st.base == nil || st.adds.n == 0 || st.dels.n == 0) {
		t.Fatalf("%d triples: want a base, adds and tombstones, have %d adds and %d tombstones", len(set), st.adds.n, st.dels.n)
	}
	return g
}

// trieFilter returns set's triples that match pat (0 a wildcard) in the
// order Match yields them: turned to lead with the permutation pat
// leads (perm), sorted by each component's chunks lowest first, and
// turned back.
func trieFilter(set []Triple, pat Triple) []Triple {
	k, _, _ := perm(pat.S, pat.P, pat.O)
	var out []Triple
	for _, x := range set {
		if (pat.S == 0 || x.S == pat.S) && (pat.P == 0 || x.P == pat.P) && (pat.O == 0 || x.O == pat.O) {
			out = append(out, turn(x, k))
		}
	}
	chunks := func(id ID) (v uint64) {
		for l := range 7 {
			v = v<<5 | uint64(id>>(5*l)&31)
		}
		return v
	}
	slices.SortFunc(out, func(a, b Triple) int {
		return cmp.Or(cmp.Compare(chunks(a.S), chunks(b.S)), cmp.Compare(chunks(a.P), chunks(b.P)), cmp.Compare(chunks(a.O), chunks(b.O)))
	})
	for i := range out {
		out[i] = turn(out[i], (3-k)%3)
	}
	return out
}

// TestPackedWidthEdges: a base packs each array at the bit length of
// its largest value, a predicate in SPO's and OSP's rows as its rank in
// POS's directory. For bases whose largest ID needs 1, 2, 16, 17, 31 and
// 32 bits — a one-term graph, IDs 65 535 and 65 536, 2³¹−1 and 2³²−1 —
// where POS's rows of two such IDs straddle word boundaries at 17 and 31
// bits, and for bases whose widths sit at their edges — one predicate
// (a rank of 0 bits, an ID index of 1 bit), 32 predicates (a directory
// of 2⁵ keys) and 33 (ranks past a 5-bit trie chunk), their IDs a
// shuffled range whose trie order is not their order — checkBase must
// hold of the built graph and of the same triples as adds alone, as a
// base with adds and as a base with tombstones.
func TestPackedWidthEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		top  ID
		bits uint
	}{{1, 1}, {3, 2}, {1<<16 - 1, 16}, {1 << 16, 17}, {1<<31 - 1, 31}, {1<<32 - 1, 32}} {
		pool := []ID{c.top, c.top - c.top/2, 1, 2, 31, 32, 33}
		for range 20 {
			pool = append(pool, 1+ID(rng.Int63n(int64(c.top))))
		}
		pool = slices.DeleteFunc(pool, func(id ID) bool { return id == 0 || id > c.top })
		ts := []Triple{{c.top, c.top, c.top}}
		for range 4 * int(min(c.top, 100)-1) { // over IDs 1 to 3, some triples left out
			ts = append(ts, Triple{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool)/2+1)], pool[rng.Intn(len(pool))]})
		}
		set := sortedSet(slices.Clone(ts), make([]Triple, len(ts)))
		b := checkBase(t, fmt.Sprintf("%d bits", c.bits), set, rng)
		if w := b.runs[1].w; w != 2*c.bits {
			t.Fatalf("largest ID %d: POS rows packed at %d bits, want %d", c.top, w, 2*c.bits)
		}
		straddles := false
		for r := range b.n {
			straddles = straddles || uint(r)*b.runs[1].w%64+b.runs[1].w > 64
		}
		if want := 64%(2*c.bits) != 0 && len(set) > 1; straddles != want {
			t.Fatalf("%d bits: rows straddle a word %v, want %v", c.bits, straddles, want)
		}
	}
	for _, preds := range []int{1, 32, 33} {
		ps := make([]ID, preds)
		for i, j := range rng.Perm(preds) {
			ps[i] = ID(60 + j)
		}
		var ts []Triple
		for s := ID(1); s <= 50; s++ {
			for range 1 + rng.Intn(12) {
				ts = append(ts, Triple{s, ps[rng.Intn(preds)], ID(1 + rng.Intn(120))})
			}
		}
		for _, p := range ps {
			ts = append(ts, Triple{ID(1 + rng.Intn(50)), p, 7})
		}
		set := sortedSet(ts, make([]Triple, len(ts)))
		b := checkBase(t, fmt.Sprintf("%d predicates", preds), set, rng)
		rank := uint(bits.Len(uint(preds - 1)))
		if b.keys[1].n != preds || b.split[0] != rank || b.runs[2].w != b.split[2]+rank || b.lead[1].w != uint(bits.Len(uint(preds))) {
			t.Fatalf("%d predicates: a directory of %d, ranks of %d and %d bits, ID index of %d bits", preds, b.keys[1].n, b.split[0], b.runs[2].w-b.split[2], b.lead[1].w)
		}
		inOrder := true
		for d := 1; d < preds; d++ {
			inOrder = inOrder && b.keys[1].at(d-1) < b.keys[1].at(d)
		}
		if preds > 1 && inOrder {
			t.Fatalf("%d predicates: ranks in ID order, want trie order", preds)
		}
	}
}

// checkBase builds set (sorted, distinct) into a graph and requires, of
// it and of set as adds alone (addsOnly) and as a base with adds and
// with tombstones (splitBase), that every bound mask of each probe yield
// set filtered by the pattern (trieFilter) through every reader
// (checkReaders) and that PredStats count it; it returns the built base.
func checkBase(t *testing.T, what string, set []Triple, rng *rand.Rand) *base {
	t.Helper()
	built := NewGraph()
	built.Build(slices.Clone(set))
	graphs := map[string]*Graph{"built": built, "adds only": addsOnly(t, set)}
	if len(set) > 1 {
		graphs["base and adds"], graphs["base and tombstones"] = splitBase(t, set, false), splitBase(t, set, true)
	}
	top := ID(0)
	for _, x := range set {
		top = max(top, x.S, x.P, x.O)
	}
	probes := []Triple{{}, {top, top, top}, {top - 1, 2, top}}
	for range 8 {
		x := set[rng.Intn(len(set))]
		probes = append(probes, x, Triple{x.O, x.S, x.P})
	}
	for name, g := range graphs {
		for _, x := range probes {
			for mask := range 8 {
				pat := Triple{x.S * ID(mask&1), x.P * ID(mask>>1&1), x.O * ID(mask>>2&1)}
				checkReaders(t, fmt.Sprintf("%s, %s: %v", what, name, pat), g, pat, trieFilter(set, pat))
			}
			subjects, objects := map[ID]bool{}, map[ID]bool{}
			for _, y := range trieFilter(set, Triple{P: x.P}) {
				subjects[y.S], objects[y.O] = true, true
			}
			if n, ds, do := g.PredStats(x.P); x.P != 0 && (n != len(trieFilter(set, Triple{P: x.P})) || ds != len(subjects) || do != len(objects)) {
				t.Fatalf("%s, %s: PredStats(%d) = %d,%d,%d, want %d distinct subjects and %d objects", what, name, x.P, n, ds, do, len(subjects), len(objects))
			}
		}
	}
	return built.cur().base
}

// checkReaders requires every reader of g's triples matching pat to
// yield want: Match, CountMatch, MatchIDs at batch sizes 1, 3 and 1024,
// and MatchAppend after rows already in its batch.
func checkReaders(t *testing.T, what string, g *Graph, pat Triple, want []Triple) {
	t.Helper()
	var got []Triple
	g.Match(pat.S, pat.P, pat.O, func(x Triple) bool { got = append(got, x); return true })
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Match yields %d triples, want %d", what, len(got), len(want))
	}
	if c := g.CountMatch(pat.S, pat.P, pat.O); c != len(want) {
		t.Fatalf("%s: CountMatch = %d, want %d", what, c, len(want))
	}
	for _, bs := range []int{1, 3, 1024} {
		got = got[:0]
		g.MatchIDs(nil, pat.S, pat.P, pat.O, bs, func(s, p, o []ID) bool {
			if len(s) > bs || len(p) != len(s) || len(o) != len(s) {
				t.Fatalf("%s: MatchIDs at batch size %d yields columns of %d, %d, %d", what, bs, len(s), len(p), len(o))
			}
			for i := range s {
				got = append(got, Triple{s[i], p[i], o[i]})
			}
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("%s: MatchIDs at batch size %d yields %d triples, want %d", what, bs, len(got), len(want))
		}
	}
	dst := TripleBatch{S: []ID{7}, P: []ID{8}, O: []ID{9}}
	if n := g.MatchAppend(pat.S, pat.P, pat.O, &dst); n != len(want) || dst.Len() != 1+len(want) {
		t.Fatalf("%s: MatchAppend appended %d rows (batch %d), want %d", what, n, dst.Len(), len(want))
	}
	for i, x := range want {
		if y := (Triple{dst.S[1+i], dst.P[1+i], dst.O[1+i]}); y != x {
			t.Fatalf("%s: MatchAppend row %d is %v, want %v", what, i, y, x)
		}
	}
}

// addsOnly returns a graph of set whose state holds it as adds alone,
// with no base: one Tx stages every triple in its tries.
func addsOnly(t *testing.T, set []Triple) *Graph {
	g := NewGraph()
	tx := g.Begin()
	for _, x := range set {
		if tx.st.add(tx.tag, x.S, x.P, x.O) {
			tx.added(x.S, x.P, x.O)
		}
	}
	tx.Commit()
	if st := g.cur(); st.base != nil || st.adds.n != len(set) {
		t.Fatalf("%d triples: want adds alone, have a base %v and %d adds", len(set), st.base != nil, st.adds.n)
	}
	return g
}

// splitBase returns a graph of set whose state is a base and a delta of
// one kind: one Tx commits a base, and a second either adds the rest of
// set (every other triple was left out) or, with tombstones, deletes
// decoys the first committed beside all of set.
func splitBase(t *testing.T, set []Triple, tombstones bool) *Graph {
	in := map[Triple]bool{}
	for _, x := range set {
		in[x] = true
	}
	var decoys []Triple
	for _, x := range set {
		if d := (Triple{x.O, x.S, x.P}); tombstones && !in[d] && !slices.Contains(decoys, d) {
			decoys = append(decoys, d)
		}
	}
	g, tx := NewGraph(), (*Tx)(nil)
	tx = g.Begin()
	for i, x := range set {
		if tombstones || i%2 == 0 {
			tx.AddIDs(x.S, x.P, x.O)
		}
	}
	for _, d := range decoys {
		tx.AddIDs(d.S, d.P, d.O)
	}
	tx.Commit()
	tx = g.Begin()
	for i, x := range set {
		if !tombstones && i%2 != 0 {
			tx.AddIDs(x.S, x.P, x.O)
		}
	}
	for _, d := range decoys {
		tx.deleteIDs(d.S, d.P, d.O)
	}
	tx.Commit()
	st := g.cur()
	if st.base == nil || st.size != len(set) || tombstones != (st.dels.n != 0) || tombstones == (st.adds.n != 0) {
		t.Fatalf("%d triples, tombstones %v: have a base %v, %d adds, %d tombstones", len(set), tombstones, st.base != nil, st.adds.n, st.dels.n)
	}
	return g
}
