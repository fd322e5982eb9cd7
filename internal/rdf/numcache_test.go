package rdf

import (
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// TestNumericOfConcurrent: readers on the lock-free hit path race
// fills of the same and neighbouring IDs, across page and page-table
// growth, while the dictionary itself grows; every answer must equal
// Numeric over the term. Run under -race.
func TestNumericOfConcurrent(t *testing.T) {
	g := NewGraph()
	const n = 20 * numPageSize
	ids := make([]ID, n)
	for i := range ids {
		if i%3 == 0 {
			ids[i] = g.Intern(IRI("http://ex/t" + strconv.Itoa(i)))
		} else {
			ids[i] = g.Intern(Integer(int64(i)))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for k := range ids {
					i := k
					if w%2 == 1 {
						i = n - 1 - k // half the workers walk the pages downwards
					}
					got, ok := g.NumericOf(ids[i])
					want, wantOK := Numeric(g.TermOf(ids[i]))
					if ok != wantOK || got != want {
						t.Errorf("NumericOf(%d) = %v, %v; want %v, %v", ids[i], got, ok, want, wantOK)
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ { // a writer interning past the readers' range
		g.Intern(Float(float64(i) + 0.5))
	}
	wg.Wait()
	if _, ok := g.NumericOf(Unbound); ok {
		t.Error("the unbound sentinel is never numeric")
	}
}

// TestNumericOfHighIDAllocatesOnePage: resolving one literal at the top
// of a large dictionary allocates the page that holds it and a page
// table, not a table with an entry per dictionary ID.
func TestNumericOfHighIDAllocatesOnePage(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 200000; i++ {
		g.Intern(IRI("http://ex/t" + strconv.Itoa(i)))
	}
	id := g.Intern(Integer(42))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, ok := g.NumericOf(id)
	runtime.ReadMemStats(&after)
	if !ok || v.I != 42 {
		t.Fatalf("NumericOf = %v, %v", v, ok)
	}
	// One 7 KiB page + 8 B per page of table; a dense memo would be
	// over 5 MB here.
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("first NumericOf at ID %d allocated %d bytes", id, got)
	}
}
