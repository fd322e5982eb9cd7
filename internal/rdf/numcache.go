package rdf

import (
	"sync"
	"sync/atomic"

	"scisparql/internal/array"
)

// numCache memoizes the numeric interpretation of dictionary IDs.
// Terms are immutable and IDs are never reused (Graph.Reset drops the
// memo), so a cached entry is valid forever. It is shared — like the dictionary itself — between a
// live graph, its snapshots, and post-Clear states.
//
// The memo is paged: a page is allocated the first time an ID inside
// it is resolved, so what the cache holds follows the IDs aggregation
// has touched, not the size of the dictionary. Hits take no lock: the
// page table and its pages are reached through atomic pointers, and an
// entry's state is stored after its value, so a reader that observes a
// computed state also observes the value. Fills serialize on mu.
//
// The state distinguishes "not computed yet" from "computed, not
// numeric" so string-heavy columns pay the coercion only once.
type numCache struct {
	mu    sync.Mutex
	table atomic.Pointer[[]atomic.Pointer[numPage]]
}

const numPageSize = 256

type numPage struct {
	state [numPageSize]atomic.Uint32 // numUnknown, numNumeric or numNot
	vals  [numPageSize]array.Number
}

const (
	numUnknown uint32 = iota
	numNumeric
	numNot
)

func (c *numCache) page(pi int) *numPage {
	if t := c.table.Load(); t != nil && pi < len(*t) {
		return (*t)[pi].Load()
	}
	return nil
}

// fill records v as entry slot of page pi, allocating the page — and
// growing the page table, by doubling — as needed.
func (c *numCache) fill(pi, slot int, v array.Number, numeric bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pg := c.page(pi)
	if pg == nil {
		var table []atomic.Pointer[numPage]
		if t := c.table.Load(); t != nil {
			table = *t
		}
		if pi >= len(table) {
			grown := make([]atomic.Pointer[numPage], max(pi+1, 2*len(table)))
			for i := range table {
				grown[i].Store(table[i].Load())
			}
			table = grown
			c.table.Store(&table)
		}
		pg = new(numPage)
		table[pi].Store(pg)
	}
	// A racing fill of the same ID got here first: its value is already
	// visible to lock-free readers and must not be rewritten.
	if pg.state[slot].Load() != numUnknown {
		return
	}
	if numeric {
		pg.vals[slot] = v
		pg.state[slot].Store(numNumeric)
	} else {
		pg.state[slot].Store(numNot)
	}
}

// numericOf resolves the numeric value of id, consulting the cache
// first and falling back to decoding the term through the dictionary.
func (d *dict) numericOf(id ID) (array.Number, bool) {
	if id == 0 {
		return array.Number{}, false
	}
	pi, slot := int(id-1)/numPageSize, int(id-1)%numPageSize
	if pg := d.num.page(pi); pg != nil {
		switch pg.state[slot].Load() {
		case numNumeric:
			return pg.vals[slot], true
		case numNot:
			return array.Number{}, false
		}
	}
	v, ok := Numeric(d.termOf(id))
	d.num.fill(pi, slot, v, ok)
	return v, ok
}

// NumericOf returns the cached numeric interpretation of a dictionary
// ID (Numeric over TermOf, memoized per ID). The zero ID — the unbound
// sentinel — is never numeric.
func (g *Graph) NumericOf(id ID) (array.Number, bool) {
	return g.dict.numericOf(id)
}
