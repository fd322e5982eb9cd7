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

// pinWatch holds snapshots beside the fingerprint scan gave each when it
// was pinned, and readers that re-scan all of them until stop: each
// must keep yielding what it had; under -race an in-place write to a
// node a snapshot reaches is also reported as a data race.
type pinWatch struct {
	t    *testing.T
	scan func(*Graph) (n int, sum uint64)
	mu   sync.Mutex
	pins []pinnedScan
	done chan struct{}
	wg   sync.WaitGroup
}

type pinnedScan struct {
	g   *Graph
	n   int
	sum uint64
}

func watchPins(t *testing.T, readers int, scan func(*Graph) (int, uint64)) *pinWatch {
	w := &pinWatch{t: t, scan: scan, done: make(chan struct{})}
	for r := 0; r < readers; r++ {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for {
				select {
				case <-w.done:
					return
				default:
					w.verify()
				}
			}
		}()
	}
	return w
}

// take pins g's current state and returns how many triples scan finds.
func (w *pinWatch) take(g *Graph) int {
	s := g.Snapshot()
	n, sum := w.scan(s)
	w.mu.Lock()
	w.pins = append(w.pins, pinnedScan{s, n, sum})
	w.mu.Unlock()
	return n
}

func (w *pinWatch) verify() {
	w.mu.Lock()
	held := append([]pinnedScan(nil), w.pins...)
	w.mu.Unlock()
	for i, p := range held {
		if n, sum := w.scan(p.g); n != p.n || sum != p.sum {
			w.t.Errorf("snapshot %d moved: %d triples (digest %x), pinned with %d (%x)", i, n, sum, p.n, p.sum)
		}
	}
}

// stop ends the readers and checks every snapshot once more.
func (w *pinWatch) stop() {
	close(w.done)
	w.wg.Wait()
	w.verify()
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
	w := watchPins(t, 3, digest)
	defer w.stop()
	take := func() { w.take(g) }

	take()
	for round := 0; round < rounds; round++ {
		tx := g.Begin()
		for i := 0; i < perRound; i++ {
			s, p, o := ids[i%subjects], ids[(i/subjects)%7], ids[subjects+(i+round*131)%perRound]
			if (i+round)%3 == 0 {
				tx.Delete(g.TermOf(s), g.TermOf(p), g.TermOf(o))
			} else {
				tx.addIDs(s, p, o)
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
}

// TestPredicateScanFrozenWhileSetsGrow: a predicate-only Match walks
// pos[p], whose sets here have one subject each — members that live in
// the slots of nodes the snapshot shares with the writer's next states.
// The writer gives every object a second subject and takes it away
// again, through committed and aborted transactions and bare writes,
// while readers keep re-scanning snapshots pinned at every stage.
func TestPredicateScanFrozenWhileSetsGrow(t *testing.T) {
	const objects = 200
	g := NewGraph()
	var ids []ID
	for i := 0; i < 2+2*objects; i++ {
		ids = append(ids, g.Intern(Integer(int64(i))))
	}
	p, extra, first, objs := ids[0], ids[1], ids[2:2+objects], ids[2+objects:]
	tx := g.Begin()
	for i, o := range objs {
		tx.addIDs(first[i], p, o)
	}
	tx.Commit()

	scan := func(s *Graph) (n int, sum uint64) {
		s.Match(0, p, 0, func(t Triple) bool {
			n, sum = n+1, sum+uint64(t.S)*uint64(t.O)
			return true
		})
		return n, sum
	}
	w := watchPins(t, 2, scan)
	defer w.stop()
	take := func(want int) {
		t.Helper()
		if n := w.take(g); n != want {
			t.Fatalf("predicate scan yields %d triples, want %d", n, want)
		}
	}

	take(objects)
	for round := 0; round < 8; round++ {
		// One member to two: in one transaction, or one bare write each.
		tx := g.Begin()
		for i, o := range objs {
			if i%2 == round%2 {
				tx.addIDs(extra, p, o)
			}
		}
		if round%4 == 3 {
			tx.Abort()
			take(objects)
			continue
		}
		tx.Commit()
		take(objects + objects/2)
		for i, o := range objs {
			if i%2 != round%2 {
				g.addIDs(extra, p, o)
			}
		}
		take(2 * objects)
		// And back to one, the other way round.
		for i, o := range objs {
			if i%2 == round%2 {
				g.DeleteIDs(extra, p, o)
			}
		}
		take(objects + objects/2)
		tx = g.Begin()
		for _, o := range objs {
			tx.Delete(g.TermOf(extra), g.TermOf(p), g.TermOf(o))
		}
		tx.Commit()
		take(objects)
	}
}

// dumpTrie renders a trie's nodes — address, bitmap, tag, capacity —
// and hands each leaf to leaf.
func dumpTrie[V any](sb *strings.Builder, n *pmNode[V], leaf func(sl pmSlot[V])) {
	if n == nil {
		return
	}
	fmt.Fprintf(sb, "%p %x %d %d[", n, n.bitmap, n.tag, cap(n.slots))
	for _, sl := range n.slots {
		if sl.child != nil {
			dumpTrie(sb, sl.child, leaf)
		} else {
			leaf(sl)
		}
	}
	sb.WriteByte(']')
}

// dumpState renders everything reachable from a graph state — node
// addresses, bitmaps, tags, keys, inline members, header counters — so
// two dumps are equal only if nothing reachable was written or replaced.
func dumpState(st *graphState) string {
	var sb strings.Builder
	for _, root := range []*pmNode[*pmid]{st.spo, st.pos, st.osp} {
		dumpTrie(&sb, root, func(a pmSlot[*pmid]) {
			m := a.val
			fmt.Fprintf(&sb, "%d:%p %d %d %d ", a.key, m, m.n, m.total, m.tag)
			dumpTrie(&sb, m.root, func(b pmSlot[*pset]) {
				fmt.Fprintf(&sb, "%d:%d ", b.key, b.one)
				if s := b.val; s != nil {
					fmt.Fprintf(&sb, "%p %d %d ", s, s.n, s.tag)
					dumpTrie(&sb, s.root, func(c pmSlot[struct{}]) { fmt.Fprintf(&sb, "%d ", c.key) })
				}
			})
		})
		sb.WriteByte('\n')
	}
	dumpTrie(&sb, st.subjects, func(p pmSlot[int32]) { fmt.Fprintf(&sb, "%d:%d ", p.key, p.val) })
	fmt.Fprintf(&sb, "\n%d %d", st.size, st.gen)
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
		g.addIDs(ids[i%20], ids[i%5], ids[i])
	}
	tx := g.Begin()
	for i := 0; i < 300; i++ {
		tx.addIDs(ids[i%20], ids[5+i%5], ids[i])
	}
	tx.Commit()

	st := g.cur()
	before := dumpState(st)
	tx = g.Begin()
	for i := 0; i < 400; i++ {
		tx.addIDs(ids[i%25], ids[i%11], ids[(i*7)%400])
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

// TestGuardTagFitsInPadding: the owner tag and the inline set member live in
// padding their structs already had, so nodes, headers and slots are
// the size they were without either.
func TestGuardTagFitsInPadding(t *testing.T) {
	if got := unsafe.Sizeof(pmSlot[struct{}]{}); got != 16 {
		t.Errorf("pmSlot[struct{}] is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(pmSlot[*pset]{}); got != 24 {
		t.Errorf("pmSlot[*pset] is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(pmSlot[*pmid]{}); got != 24 {
		t.Errorf("pmSlot[*pmid] is %d bytes, want 24", got)
	}
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
