package wal

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	opts.Dir = dir
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendT(t *testing.T, l *Log, typ byte, body string) uint64 {
	t.Helper()
	lsn, err := l.Append(typ, []byte(body))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Commit(lsn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return lsn
}

func collect(t *testing.T, l *Log, from uint64) []string {
	t.Helper()
	var out []string
	err := l.Replay(from, func(lsn uint64, typ byte, body []byte) error {
		out = append(out, fmt.Sprintf("%d:%d:%s", lsn, typ, body))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Policy: SyncAlways})
	var want []string
	for i := 0; i < 50; i++ {
		body := fmt.Sprintf("record-%03d", i)
		lsn := appendT(t, l, RecBatch, body)
		want = append(want, fmt.Sprintf("%d:%d:%s", lsn, RecBatch, body))
	}
	got := collect(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: everything still there, tail preserved.
	l2 := openT(t, dir, Options{Policy: SyncAlways})
	defer l2.Close()
	got2 := collect(t, l2, 0)
	if len(got2) != len(want) {
		t.Fatalf("after reopen: %d records, want %d", len(got2), len(want))
	}
	st := l2.Stats()
	if st.RecoveredRecords != int64(len(want)) {
		t.Fatalf("RecoveredRecords = %d, want %d", st.RecoveredRecords, len(want))
	}
	if st.TruncatedBytes != 0 {
		t.Fatalf("TruncatedBytes = %d on a clean log", st.TruncatedBytes)
	}
}

func TestReplayFrom(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Policy: SyncNone})
	defer l.Close()
	var lsns []uint64
	for i := 0; i < 10; i++ {
		lsns = append(lsns, appendT(t, l, RecBatch, fmt.Sprintf("r%d", i)))
	}
	for i, from := range lsns {
		got := collect(t, l, from)
		if len(got) != 10-i {
			t.Fatalf("Replay(from=%d): %d records, want %d", from, len(got), 10-i)
		}
	}
	// From the tail: nothing.
	if got := collect(t, l, l.TailLSN()); len(got) != 0 {
		t.Fatalf("Replay(tail): %d records, want 0", len(got))
	}
}

func TestRotationKeepsLSNsAndOrder(t *testing.T) {
	dir := t.TempDir()
	// Small segments: plenty of rotations.
	l := openT(t, dir, Options{Policy: SyncNone, SegmentBytes: 128})
	n := 100
	var want []uint64
	for i := 0; i < n; i++ {
		want = append(want, appendT(t, l, RecBatch, fmt.Sprintf("payload-%04d", i)))
	}
	segs, err := l.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	got := collect(t, l, 0)
	if len(got) != n {
		t.Fatalf("replayed %d, want %d", len(got), n)
	}
	l.Close()

	l2 := openT(t, dir, Options{Policy: SyncNone, SegmentBytes: 128})
	defer l2.Close()
	if got2 := collect(t, l2, 0); len(got2) != n {
		t.Fatalf("after reopen: %d records, want %d", len(got2), n)
	}
	if l2.TailLSN() == 0 {
		t.Fatal("tail LSN lost across reopen")
	}
}

func TestCheckpointDropsOldSegments(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Policy: SyncNone, SegmentBytes: 128})
	defer l.Close()
	for i := 0; i < 60; i++ {
		appendT(t, l, RecBatch, fmt.Sprintf("payload-%04d", i))
	}
	mid := l.TailLSN()
	for i := 0; i < 20; i++ {
		appendT(t, l, RecBatch, fmt.Sprintf("after-%04d", i))
	}
	if err := l.Checkpoint(mid); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Everything from mid on must survive.
	got := collect(t, l, mid)
	if len(got) != 20 {
		t.Fatalf("post-checkpoint replay: %d records, want 20", len(got))
	}
	// Old segments must be gone.
	segs, _ := l.listSegments()
	for _, s := range segs {
		if s.base+uint64(s.size) <= mid && s.size > 0 {
			t.Fatalf("segment %s wholly below checkpoint survived", s.path)
		}
	}
	// Appends continue after a checkpoint.
	appendT(t, l, RecBatch, "post")
	if got := collect(t, l, mid); len(got) != 21 {
		t.Fatalf("after post-checkpoint append: %d records, want 21", len(got))
	}
}

func TestMinLSNFloorsEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Policy: SyncNone, MinLSN: 4096})
	defer l.Close()
	if l.TailLSN() != 4096 {
		t.Fatalf("TailLSN = %d, want 4096", l.TailLSN())
	}
	lsn := appendT(t, l, RecBatch, "x")
	if lsn != 4096 {
		t.Fatalf("first append LSN = %d, want 4096", lsn)
	}
}

// TestTornTailSweep is the crash-injection matrix at the log layer:
// write a known log, then for every possible truncation point N chop
// the raw bytes to N and verify Open recovers exactly the longest
// committed prefix — whole records only, never an error, never a
// phantom.
func TestTornTailSweep(t *testing.T) {
	master := t.TempDir()
	l := openT(t, master, Options{Policy: SyncNone, SegmentBytes: 256})
	var bounds []uint64 // frame-boundary LSNs: bounds[i] = LSN after i records
	bounds = append(bounds, 0)
	const n = 24
	for i := 0; i < n; i++ {
		appendT(t, l, RecBatch, fmt.Sprintf("op-%02d-%s", i, bytes.Repeat([]byte{'x'}, i)))
		bounds = append(bounds, l.TailLSN())
	}
	l.Close()
	segs, err := (&Log{dir: master}).listSegments()
	if err != nil {
		t.Fatal(err)
	}
	total := bounds[n]
	recordsBelow := func(lsn uint64) int {
		k := 0
		for k < n && bounds[k+1] <= lsn {
			k++
		}
		return k
	}
	for cut := uint64(0); cut <= total; cut++ {
		dir := t.TempDir()
		// Rebuild the directory with the global byte stream cut at
		// offset `cut` (dropping later segments entirely).
		for _, seg := range segs {
			data, err := os.ReadFile(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			if seg.base >= cut {
				continue
			}
			keep := int64(len(data))
			if seg.base+uint64(keep) > cut {
				keep = int64(cut - seg.base)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg.path)), data[:keep], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		lr, err := Open(Options{Dir: dir, Policy: SyncNone, SegmentBytes: 256})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		got := 0
		err = lr.Replay(0, func(lsn uint64, typ byte, body []byte) error {
			got++
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: Replay: %v", cut, err)
		}
		if want := recordsBelow(cut); got != want {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, got, want)
		}
		// The recovered log must accept new appends.
		if _, err := lr.Append(RecBatch, []byte("resume")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		lr.Close()
	}
}

// TestCorruptMiddleTruncates flips a byte mid-log: recovery must stop
// at the corruption, not skip over it.
func TestCorruptMiddleTruncates(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Policy: SyncNone})
	for i := 0; i < 10; i++ {
		appendT(t, l, RecBatch, fmt.Sprintf("record-%d", i))
	}
	l.Close()
	segs, _ := (&Log{dir: dir}).listSegments()
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{Policy: SyncNone})
	defer l2.Close()
	st := l2.Stats()
	if st.TruncatedBytes == 0 {
		t.Fatal("corruption not detected")
	}
	got := collect(t, l2, 0)
	if len(got) == 0 || len(got) >= 10 {
		t.Fatalf("recovered %d records, want a proper non-empty prefix", len(got))
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Policy: SyncAlways, GroupWait: 500 * 1000}) // 0.5ms dwell
	defer l.Close()
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := l.Append(RecBatch, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := l.Commit(lsn); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if l.SyncedLSN() <= lsn {
					t.Errorf("commit returned before record %d durable (synced=%d)", lsn, l.SyncedLSN())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Commits != writers*each {
		t.Fatalf("Commits = %d, want %d", st.Commits, writers*each)
	}
	if st.Syncs >= st.Commits {
		t.Fatalf("group commit never coalesced: %d syncs for %d commits", st.Syncs, st.Commits)
	}
	if got := collect(t, l, 0); len(got) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(got), writers*each)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l := openT(t, dir, Options{Policy: pol, Interval: 1000 * 1000}) // 1ms
			appendT(t, l, RecPrefix, "p")
			appendT(t, l, RecDefine, "d")
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if l.SyncedLSN() != l.TailLSN() {
				t.Fatalf("after Sync: synced %d != tail %d", l.SyncedLSN(), l.TailLSN())
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l2 := openT(t, dir, Options{Policy: pol})
			defer l2.Close()
			if got := collect(t, l2, 0); len(got) != 2 {
				t.Fatalf("replayed %d, want 2", len(got))
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]SyncPolicy{"always": SyncAlways, "": SyncAlways, "interval": SyncInterval, "none": SyncNone}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Policy: SyncNone})
	appendT(t, l, RecBatch, "x")
	l.Close()
	if _, err := l.Append(RecBatch, []byte("y")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func FuzzWALDecode(f *testing.F) {
	// Seed with a valid frame, a torn frame, and junk.
	dir := f.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := l.Append(RecBatch, []byte(`{"ops":[{"k":0}]}`)); err != nil {
		f.Fatal(err)
	}
	l.Sync()
	segs, _ := l.listSegments()
	valid, _ := os.ReadFile(segs[0].path)
	l.Close()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1})
	f.Add([]byte{})
	// A frame whose body is a row table, as a batch record's tables are.
	table, err := protocol.EncodeRows([][]rdf.Term{{rdf.Blank("co1-2"), rdf.IRI("http://ex/p"), rdf.Float(math.NaN())}}, 3)
	if err != nil {
		f.Fatal(err)
	}
	frame, err := AppendFrame(nil, RecBatch, table)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Fuzz(func(t *testing.T, data []byte) {
		// DecodeFrame must never panic and must never consume more
		// bytes than it was given; a valid decode must re-encode to a
		// frame that scans to the same boundary.
		typ, body, size, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if size > len(data) || size < frameHeader+1 {
			t.Fatalf("decoded size %d out of bounds (len %d)", size, len(data))
		}
		if len(body) != size-frameHeader-1 {
			t.Fatalf("body length %d inconsistent with size %d", len(body), size)
		}
		_ = typ
		// And the whole prefix scan terminates with a sane boundary.
		validLen, n := scanFrames(data)
		if validLen > int64(len(data)) || n < 1 {
			t.Fatalf("scanFrames(%d bytes) = %d, %d", len(data), validLen, n)
		}
	})
}
