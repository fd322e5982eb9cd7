package rdf

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// A transaction edits trie nodes in place, so what these tests defend
// is that it only ever does so to nodes no reader can reach.

// digest is an order-independent fingerprint of a graph's triples.
func digest(g *Graph) (n int, sum uint64) {
	g.Match(0, 0, 0, func(t Triple) bool {
		x := uint64(t.S)<<42 ^ uint64(t.P)<<21 ^ uint64(t.O)
		x *= 0x9e3779b97f4a7c15
		sum += x ^ x>>29
		n++
		return true
	})
	return n, sum
}

// TestSnapshotsFrozenUnderTx pins snapshots before, between and after
// large transactions that keep rewriting the same subjects, while
// readers re-enumerate every snapshot pinned so far. Each must keep
// yielding the set it had when pinned; under -race an in-place write to
// a node a snapshot reaches is also reported as a data race.
func TestSnapshotsFrozenUnderTx(t *testing.T) {
	const (
		rounds   = 12
		subjects = 40
		perRound = 1500
	)
	g := NewGraph()
	var ids []ID
	for i := 0; i < subjects+perRound; i++ {
		ids = append(ids, g.Intern(Integer(int64(i))))
	}
	type pin struct {
		g   *Graph
		n   int
		sum uint64
	}
	var (
		mu   sync.Mutex
		pins []pin
	)
	take := func() {
		s := g.Snapshot()
		n, sum := digest(s)
		mu.Lock()
		pins = append(pins, pin{s, n, sum})
		mu.Unlock()
	}
	verify := func() {
		mu.Lock()
		held := append([]pin(nil), pins...)
		mu.Unlock()
		for i, p := range held {
			if n, sum := digest(p.g); n != p.n || sum != p.sum {
				t.Errorf("snapshot %d moved: %d triples (digest %x), pinned with %d (%x)", i, n, sum, p.n, p.sum)
			}
		}
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					verify()
				}
			}
		}()
	}

	take()
	for round := 0; round < rounds; round++ {
		tx := g.Begin()
		for i := 0; i < perRound; i++ {
			s, p, o := ids[i%subjects], ids[(i/subjects)%7], ids[subjects+(i+round*131)%perRound]
			if (i+round)%3 == 0 {
				tx.Delete(g.TermOf(s), g.TermOf(p), g.TermOf(o))
			} else {
				tx.AddIDs(s, p, o)
			}
			// Mid-transaction pins see the last commit, never the
			// staged edits.
			if i == perRound/2 {
				take()
			}
		}
		if round%4 == 3 {
			tx.Abort()
		} else {
			tx.Commit()
		}
		take()
	}
	close(done)
	readers.Wait()
	verify()
}

// dumpTrie renders a trie's nodes — address, bitmap, tag, capacity —
// and hands each leaf to leaf.
func dumpTrie[V any](sb *strings.Builder, n *pmNode[V], leaf func(key uint32, val V)) {
	if n == nil {
		return
	}
	fmt.Fprintf(sb, "%p %x %d %d[", n, n.bitmap, n.tag, cap(n.slots))
	for _, sl := range n.slots {
		if sl.child != nil {
			dumpTrie(sb, sl.child, leaf)
		} else {
			leaf(sl.key, sl.val)
		}
	}
	sb.WriteByte(']')
}

// dumpState renders everything reachable from a graph state — node
// addresses, bitmaps, tags, keys, header counters — so two dumps are
// equal only if nothing reachable was written or replaced.
func dumpState(st *graphState) string {
	var sb strings.Builder
	for _, root := range []*pmNode[*pmid]{st.spo, st.pos, st.osp, st.pso} {
		dumpTrie(&sb, root, func(a uint32, m *pmid) {
			fmt.Fprintf(&sb, "%d:%p %d %d %d ", a, m, m.n, m.total, m.tag)
			dumpTrie(&sb, m.root, func(b uint32, s *pset) {
				fmt.Fprintf(&sb, "%d:%p %d %d ", b, s, s.n, s.tag)
				dumpTrie(&sb, s.root, func(c uint32, _ struct{}) { fmt.Fprintf(&sb, "%d ", c) })
			})
		})
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%d %d", st.size, st.gen)
	return sb.String()
}

// TestAbortLeavesStateUntouched: an aborted transaction that added to,
// deleted from and emptied sets under existing subjects leaves the
// published state's every reachable byte as it was.
func TestAbortLeavesStateUntouched(t *testing.T) {
	g := NewGraph()
	var ids []ID
	for i := 0; i < 400; i++ {
		ids = append(ids, g.Intern(Integer(int64(i))))
	}
	// Some nodes from bare adds (tag 0), some from a committed
	// transaction (a dead tag).
	for i := 0; i < 300; i++ {
		g.AddIDs(ids[i%20], ids[i%5], ids[i])
	}
	tx := g.Begin()
	for i := 0; i < 300; i++ {
		tx.AddIDs(ids[i%20], ids[5+i%5], ids[i])
	}
	tx.Commit()

	st := g.cur()
	before := dumpState(st)
	tx = g.Begin()
	for i := 0; i < 400; i++ {
		tx.AddIDs(ids[i%25], ids[i%11], ids[(i*7)%400])
		tx.Delete(g.TermOf(ids[i%20]), g.TermOf(ids[i%5]), g.TermOf(ids[i]))
	}
	if tx.Changed() == 0 {
		t.Fatal("the transaction changed nothing")
	}
	tx.Abort()
	if g.cur() != st {
		t.Fatal("Abort published a state")
	}
	if after := dumpState(st); after != before {
		t.Fatal("Abort left the published state changed")
	}
}

// TestTagCeiling drives the tag counter to its end: the last tag is
// handed out once, every later transaction gets tag 0 and so copies
// every node it writes, and snapshots pinned along the way stay intact.
func TestTagCeiling(t *testing.T) {
	defer txTags.Store(txTags.Load())
	txTags.Store(math.MaxUint32 - 1)

	m := newTrieModel(t)
	fill := func(wantTag uint32, from int) {
		m.pin()
		m.begin()
		if m.tx.tag != wantTag {
			t.Fatalf("transaction got tag %d, want %d", m.tx.tag, wantTag)
		}
		for i := from; i < from+150; i++ {
			m.apply(i%4 != 3, Triple{modelPool[i%8], modelPool[(i/8)%8], modelPool[(i/3)%8]})
		}
		m.end(true)
	}
	fill(math.MaxUint32, 0)
	// The last tag's nodes are published now; a tag-0 transaction must
	// copy each one it writes, roots included.
	st := m.g.cur()
	before := dumpState(st)
	fill(0, 50)
	fill(0, 120)
	if got := txTags.Load(); got != math.MaxUint32 {
		t.Fatalf("counter moved off its ceiling: %d", got)
	}
	if dumpState(st) != before {
		t.Fatal("a transaction past the ceiling wrote into a published state")
	}
	if now := m.g.cur(); now.spo == st.spo || now.spo.tag != 0 {
		t.Fatalf("root after the ceiling: same node %v, tag %d", now.spo == st.spo, now.spo.tag)
	}
	m.finish()
}

// TestTagFitsInPadding: the owner tag lives in padding the three
// structs already had, so a graph's resident size is what it was.
func TestTagFitsInPadding(t *testing.T) {
	if got := unsafe.Sizeof(pmNode[*pmid]{}); got != 32 {
		t.Errorf("pmNode is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(pset{}); got != 16 {
		t.Errorf("pset is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(pmid{}); got != 24 {
		t.Errorf("pmid is %d bytes, want 24", got)
	}
}
