package rdf

import (
	"fmt"
	"sync"
	"testing"
)

// TestGraphSizeDuringMutation is the regression test for the Size data
// race: Size used to read g.size without a lock, so calling it while a
// writer ran was a race (caught by -race) and could return torn state.
func TestGraphSizeDuringMutation(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			addTriple(g, IRI(fmt.Sprintf("http://ex/s%d", i)), IRI("http://ex/p"), Integer(int64(i)))
		}
		close(stop)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := 0
		for {
			n := g.Size()
			if n < last {
				t.Errorf("size went backwards: %d after %d", n, last)
				return
			}
			last = n
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	if g.Size() != 2000 {
		t.Fatalf("size %d, want 2000", g.Size())
	}
}

// TestGraphConcurrentReadersAndWriters drives every reader entry point
// in parallel with writers; under -race this verifies the documented
// "safe for concurrent use" contract.
func TestGraphConcurrentReadersAndWriters(t *testing.T) {
	g := NewGraph()
	p := IRI("http://ex/p")
	for i := 0; i < 200; i++ {
		addTriple(g, IRI(fmt.Sprintf("http://ex/s%d", i)), p, Integer(int64(i)))
	}
	pid, _ := g.Lookup(p)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers: one adding fresh triples, one deleting and re-adding a
	// fixed band.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 200; i < 1200; i++ {
			addTriple(g, IRI(fmt.Sprintf("http://ex/s%d", i)), p, Integer(int64(i)))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 50; round++ {
			for i := 0; i < 20; i++ {
				s := IRI(fmt.Sprintf("http://ex/s%d", i))
				deleteTriple(g, s, p, Integer(int64(i)))
				addTriple(g, s, p, Integer(int64(i)))
			}
		}
		close(stop)
	}()

	// Readers: pattern matching (with nested re-entry, as the query
	// engine's join loops do), term resolution, counting, statistics
	// and full enumeration.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g.Match(0, pid, 0, func(tr Triple) bool {
					// Nested read while a Match enumeration is live —
					// must not deadlock or race.
					_ = g.TermOf(tr.S)
					g.Match(tr.S, pid, 0, func(Triple) bool { return false })
					return true
				})
				g.CountMatch(0, pid, 0)
				g.PredStats(pid)
				g.Triples(func(s, p, o Term) bool { return true })
				if !g.Has(IRI("http://ex/s100"), p, Integer(100)) {
					t.Error("stable triple vanished")
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()

	if n := g.CountMatch(0, pid, 0); n != 1200 {
		t.Fatalf("final count %d, want 1200", n)
	}
}

// TestGraphMutationInsideMatch verifies the snapshot semantics: the
// yield callback may mutate the graph it is enumerating.
func TestGraphMutationInsideMatch(t *testing.T) {
	g := NewGraph()
	p := IRI("http://ex/p")
	for i := 0; i < 10; i++ {
		addTriple(g, IRI(fmt.Sprintf("http://ex/s%d", i)), p, Integer(int64(i)))
	}
	pid, _ := g.Lookup(p)
	seen := 0
	g.Match(0, pid, 0, func(tr Triple) bool {
		seen++
		deleteTripleIDs(g, tr.S, tr.P, tr.O)
		return true
	})
	if seen != 10 {
		t.Fatalf("enumerated %d of the snapshot, want 10", seen)
	}
	if g.Size() != 0 {
		t.Fatalf("size %d after deleting every yielded triple", g.Size())
	}
}

// TestDatasetConcurrentNamed checks that racing creators of the same
// named graph agree on a single instance.
func TestDatasetConcurrentNamed(t *testing.T) {
	d := NewDataset()
	const n = 16
	got := make([]*Graph, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = d.Named(IRI("http://ex/g"), true)
			d.GraphNames()
			d.Named(IRI(fmt.Sprintf("http://ex/g%d", i)), true)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Named(create) returned distinct graphs")
		}
	}
	if len(d.GraphNames()) != n+1 {
		t.Fatalf("graph count %d, want %d", len(d.GraphNames()), n+1)
	}
}
