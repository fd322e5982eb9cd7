package rdf

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The tries have one mutator (pmap.go) reached three ways: bare writes
// (one transaction per triple, so every published node it touches is
// copied), a long transaction (almost every node its own, edited in
// place) and short ones (a mix, plus Abort). The model test drives all
// three, and a long transaction of mostly adds, with the same random
// sequences and compares the graph with a plain map after every step —
// once with the delta's default cap, where these short sequences stay in
// the tries past the first commit into an empty graph (a base), and once
// with a cap so low that publication keeps compacting them into a base,
// which later writes then delete from, and a transaction's adds go to
// its log once its delta passes the cap.

// lowerDeltaCap makes publication compact any delta of more than n
// triples until the test ends.
func lowerDeltaCap(t testing.TB, n int) {
	old := deltaCap
	deltaCap = n
	t.Cleanup(func() { deltaCap = old })
}

// compact folds g's delta into a new base, as publication does once the
// delta outgrows its cap.
func compact(g *Graph) *Graph {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	g.publish(g.cur().merged(nil))
	return g
}

// modelDict is shared by every model graph: Integer(i) has ID i+1, far
// enough up that the pool below can hold IDs agreeing in their low 5,
// 10 and 15 bits — keys that collide one, two and three trie levels
// deep, so splits and collapses run at every depth.
var modelDict = sync.OnceValue(func() *dict {
	g := NewGraph()
	for i := 0; i <= 1<<15; i++ {
		g.Intern(Integer(int64(i)))
	}
	return g.dict
})

var modelPool = []ID{1, 33, 65, 1 + 1<<10, 1 + 1<<11, 1 + 1<<15, 2, 34}

// narrowPool is how many of modelPool's IDs a "narrow" run draws each
// position from: 18 possible triples, so every innermost set — objects
// under (s, p), subjects under (p, o), predicates under (o, s) — keeps
// crossing empty, inline member, two-member pset and back.
var narrowPool = Triple{S: 3, P: 2, O: 3}

type pinned struct {
	g     *Graph
	model map[Triple]struct{}
}

// trieModel is a graph beside its oracle: committed is what the graph
// publishes, staged what the open transaction (if any) will publish.
// The transaction records its ops; replayed holds what its first
// replayedOps of them give when replayed on the state at Begin, and
// changed counts the effective writes it staged.
type trieModel struct {
	t           testing.TB
	g           *Graph
	tx          *Tx
	committed   map[Triple]struct{}
	staged      map[Triple]struct{}
	replayed    map[Triple]struct{}
	replayedOps int
	changed     int
	pins        []pinned
}

func newTrieModel(t testing.TB) *trieModel {
	g := NewGraph()
	g.dict = modelDict()
	return &trieModel{t: t, g: g, committed: map[Triple]struct{}{}}
}

func (m *trieModel) begin() {
	m.tx = m.g.Begin()
	m.tx.Record(true)
	m.staged, m.replayed = maps.Clone(m.committed), maps.Clone(m.committed)
	m.replayedOps, m.changed = 0, 0
}

func (m *trieModel) end(commit bool) {
	m.t.Helper()
	if commit {
		m.tx.Commit()
		m.committed = m.staged
	} else {
		m.tx.Abort()
	}
	m.tx, m.staged = nil, nil
	checkStats(m.t, m.g, m.committed)
}

// clear empties the graph (outside a transaction: Clear takes the
// writer lock).
func (m *trieModel) clear() {
	m.t.Helper()
	if n := m.g.Clear(); n != len(m.committed) {
		m.t.Fatalf("Clear removed %d triples, model had %d", n, len(m.committed))
	}
	m.committed = map[Triple]struct{}{}
	checkStats(m.t, m.g, m.committed)
}

func (m *trieModel) pin() {
	m.pins = append(m.pins, pinned{m.g.Snapshot(), maps.Clone(m.committed)})
}

// apply adds or deletes tr through the open transaction, or as a
// one-triple transaction when there is none, checks the reported outcome, and compares every view
// with its model.
func (m *trieModel) apply(add bool, tr Triple) {
	m.t.Helper()
	model := m.committed
	if m.tx != nil {
		model = m.staged
	}
	_, had := model[tr]
	var did bool
	switch {
	case add && m.tx != nil:
		n := m.tx.Changed()
		m.tx.AddIDs(tr.S, tr.P, tr.O)
		did = m.tx.Changed() != n
	case add:
		did = addTripleIDs(m.g, tr.S, tr.P, tr.O)
	case m.tx != nil:
		did = m.tx.Delete(m.g.TermOf(tr.S), m.g.TermOf(tr.P), m.g.TermOf(tr.O))
	default:
		did = deleteTripleIDs(m.g, tr.S, tr.P, tr.O)
	}
	if did != (had != add) {
		m.t.Fatalf("add=%v %v reported %v with the triple present=%v", add, tr, did, had)
	}
	if add {
		model[tr] = struct{}{}
	} else {
		delete(model, tr)
	}
	if did && m.tx != nil {
		m.changed++
	}
	m.check(tr)
}

// check compares the published graph with committed and, inside a
// transaction, the staged state with staged, on the eight shapes of tr.
func (m *trieModel) check(tr Triple) {
	m.t.Helper()
	checkShapes(m.t, m.g, m.committed, tr)
	if m.tx != nil {
		view := &Graph{dict: m.g.dict, frozen: true}
		view.state.Store(m.tx.staged())
		checkShapes(m.t, view, m.staged, tr)
		if m.tx.Size() != len(m.staged) || m.tx.Changed() != m.changed {
			m.t.Fatalf("Tx.Size %d, Changed %d; model %d, %d", m.tx.Size(), m.tx.Changed(), len(m.staged), m.changed)
		}
		m.replay()
	}
}

// replay applies the ops the transaction recorded since the last call to
// replayed, requiring each to be effective, and compares the result with
// staged.
func (m *trieModel) replay() {
	m.t.Helper()
	ops := m.tx.Ops()
	for _, op := range ops[m.replayedOps:] {
		tr := Triple{op.S, op.P, op.O}
		_, had := m.replayed[tr]
		if had != (op.Kind == OpDelete) {
			m.t.Fatalf("op %v on %v is not effective: present=%v", op.Kind, tr, had)
		}
		if op.Kind == OpAdd {
			m.replayed[tr] = struct{}{}
		} else {
			delete(m.replayed, tr)
		}
	}
	m.replayedOps = len(ops)
	if !maps.Equal(m.replayed, m.staged) {
		m.t.Fatalf("replaying Ops gives %d triples, the staged state has %d", len(m.replayed), len(m.staged))
	}
}

// finish ends an open transaction and re-checks every pinned snapshot:
// none may have moved, whatever was written after it was taken.
func (m *trieModel) finish() {
	m.t.Helper()
	if m.tx != nil {
		m.end(true)
	}
	m.check(Triple{})
	for _, p := range m.pins {
		checkShapes(m.t, p.g, p.model, Triple{})
		checkStats(m.t, p.g, p.model)
	}
}

// checkShapes matches every bound/unbound combination of tr's
// components against the model: Match must yield exactly the model's
// matching triples, once each, CountMatch their number, and PredStats
// the model's statistics for tr.P.
func checkShapes(t testing.TB, g *Graph, model map[Triple]struct{}, tr Triple) {
	t.Helper()
	for shape := 0; shape < 8; shape++ {
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
		fits := func(x Triple) bool {
			return (pat.S == 0 || pat.S == x.S) && (pat.P == 0 || pat.P == x.P) && (pat.O == 0 || pat.O == x.O)
		}
		want := 0
		for x := range model {
			if fits(x) {
				want++
			}
		}
		got := map[Triple]struct{}{}
		g.Match(pat.S, pat.P, pat.O, func(x Triple) bool {
			_, dup := got[x]
			_, in := model[x]
			if dup || !in || !fits(x) {
				t.Fatalf("Match%v yielded %v: duplicate=%v in model=%v", pat, x, dup, in)
			}
			got[x] = struct{}{}
			return true
		})
		if len(got) != want {
			t.Fatalf("Match%v yielded %d triples, model has %d", pat, len(got), want)
		}
		if n := g.CountMatch(pat.S, pat.P, pat.O); n != want {
			t.Fatalf("CountMatch%v = %d, model has %d", pat, n, want)
		}
	}
	checkPredStats(t, g, model, tr.P)
}

// checkPredStats compares a predicate's triple, distinct-subject and
// distinct-object counts with the model's.
func checkPredStats(t testing.TB, g *Graph, model map[Triple]struct{}, p ID) {
	t.Helper()
	subj, obj, count := map[ID]struct{}{}, map[ID]struct{}{}, 0
	for x := range model {
		if x.P == p {
			subj[x.S], obj[x.O] = struct{}{}, struct{}{}
			count++
		}
	}
	if n, ds, do := g.PredStats(p); n != count || ds != len(subj) || do != len(obj) {
		t.Fatalf("PredStats(%d) = %d,%d,%d, model has %d,%d,%d", p, n, ds, do, count, len(subj), len(obj))
	}
}

// checkStats is checkPredStats for every predicate there can be: what
// Commit, Abort and Clear must leave right for all of them at once.
func checkStats(t testing.TB, g *Graph, model map[Triple]struct{}) {
	t.Helper()
	for _, p := range modelPool {
		checkPredStats(t, g, model, p)
	}
}

func TestTrieModel(t *testing.T) {
	const steps = 1200
	modes := map[string]func(m *trieModel, rng *rand.Rand, step int){
		"bare": func(*trieModel, *rand.Rand, int) {},
		// Bare writes first, so the one transaction starts from a
		// published graph whose nodes it must copy before writing.
		"one-tx": func(m *trieModel, _ *rand.Rand, step int) {
			if step == steps/6 {
				m.begin()
			}
		},
		// One transaction for the whole run, nine adds in ten until the
		// last third: under the low cap, its adds keep going to the log,
		// repeating staged triples, until a delete folds it.
		"bulk-tx": func(m *trieModel, _ *rand.Rand, step int) {
			if step == 0 {
				m.begin()
			}
		},
		// Transactions of 1-40 steps, one in four aborted, now and then a
		// Clear between two of them.
		"short-tx": func(m *trieModel, rng *rand.Rand, _ int) {
			switch {
			case m.tx == nil:
				m.begin()
			case rng.Intn(20) == 0:
				m.end(rng.Intn(4) != 0)
				if rng.Intn(8) == 0 {
					m.clear()
				}
			}
		},
	}
	all := ID(len(modelPool))
	for name, control := range modes {
		// Seeds 1-3 draw from the whole pool (deep splits and collapses),
		// 4-6 from the narrow one (sets of zero, one and two members).
		for seed := int64(1); seed <= 6; seed++ {
			for _, c := range []struct {
				suffix string
				cap    int
			}{{"", deltaCap}, {"+compact", 6}} {
				t.Run(fmt.Sprintf("%s%s/seed%d", name, c.suffix, seed), func(t *testing.T) {
					lowerDeltaCap(t, c.cap)
					rng := rand.New(rand.NewSource(seed))
					m := newTrieModel(t)
					width, adds := Triple{all, all, all}, 6
					if seed > 3 {
						width, adds = narrowPool, 5
					}
					if name == "bulk-tx" {
						adds = 9
					}
					for step := 0; step < steps; step++ {
						control(m, rng, step)
						if step%100 == 0 {
							m.pin()
						}
						if step == steps/2 && m.tx == nil {
							m.clear()
						}
						pick := func(n ID) ID { return modelPool[rng.Intn(int(n))] }
						// Deletes outnumber adds in the last third, so nodes
						// collapse and sets empty out as well as grow.
						add := rng.Intn(10) < adds
						if step > 2*steps/3 {
							add = rng.Intn(10) < 3
						}
						m.apply(add, Triple{pick(width.S), pick(width.P), pick(width.O)})
					}
					m.finish()
				})
			}
		}
	}
}

// FuzzTxOps reads four bytes per operation: a kind and three pool
// indexes. Kinds add, delete, open/commit/abort a transaction, pin a
// snapshot and (outside a transaction) clear; the oracle is
// TestTrieModel's. A delta of more than four triples is compacted, so
// a few operations reach a base, its tombstones and the next base.
func FuzzTxOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 4, 0, 0, 0})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 1, 5, 0, 5, 1, 0, 7, 0, 0, 0, 6, 1, 0, 0, 4, 0, 1, 5})
	f.Add([]byte{0, 0, 3, 5, 7, 0, 0, 0, 6, 0, 0, 0, 1, 0, 3, 4, 5, 0, 3, 5, 6, 0, 0, 0, 2, 3, 3, 3})
	// One set per index through 0 -> 1 -> 2 -> 1 -> 0 members: bare; then
	// pinned, shrunk inside a transaction that aborts and again bare; then
	// pinned, cleared, and cycled inside a transaction that commits.
	grow := []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0}
	shrink := []byte{4, 0, 0, 1, 4, 1, 0, 0, 4, 0, 1, 0, 4, 0, 0, 0}
	pin, clear, begin, abort, commit := []byte{7, 0, 0, 0}, []byte{7, 1, 0, 0}, []byte{6, 0, 0, 0}, []byte{6, 0, 0, 0}, []byte{6, 1, 0, 0}
	f.Add(slices.Concat(grow, shrink))
	f.Add(slices.Concat(grow, pin, begin, shrink, abort, shrink))
	f.Add(slices.Concat(grow, pin, clear, begin, grow, shrink, commit))
	f.Fuzz(func(t *testing.T, data []byte) {
		lowerDeltaCap(t, 4)
		m := newTrieModel(t)
		for ; len(data) >= 4; data = data[4:] {
			at := func(i int) ID { return modelPool[int(data[i])%len(modelPool)] }
			switch kind := data[0] % 8; {
			case kind < 6:
				m.apply(kind < 4, Triple{at(1), at(2), at(3)})
			case kind == 7 && data[1]%2 == 1 && m.tx == nil:
				m.clear()
			case kind == 7:
				m.pin()
			case m.tx == nil:
				m.begin()
			default:
				m.end(data[1]%2 == 1)
			}
		}
		m.finish()
	})
}
