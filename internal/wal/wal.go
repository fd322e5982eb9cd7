// Package wal implements the write-ahead log behind SSDM's durable
// write path. The log is a sequence of CRC-framed, length-prefixed
// records spread over segment files; every committed update appends
// its effective operations here and is acknowledged only once the
// record reaches the log (and, under the "always" sync policy, the
// disk). After a crash the manager replays the log over the last
// checkpoint image and recovers exactly the committed prefix.
//
// Layout. A segment file is named wal-<base>.log where <base> is the
// 16-digit decimal log sequence number (LSN) of its first byte; a
// record's LSN is segment base + offset of its frame, so LSNs are
// byte positions in the abstract infinite log and need no coordination
// across rotations. Each frame is
//
//	u32 little-endian payload length
//	u32 CRC-32C (Castagnoli) of the payload
//	payload = one type byte + the record body
//
// A torn tail (crash mid-write) fails the length or CRC check; Open
// truncates the log at the last valid frame and drops any later
// segments, so the log always ends on a frame boundary.
//
// Group commit. Concurrent committers coalesce into one fsync: the
// first caller into Commit becomes the leader, optionally dwells for
// GroupWait to let more appends arrive, then syncs once for everyone;
// followers whose records the leader covered return without touching
// the disk. The "interval" policy syncs on a timer instead and
// acknowledges after the OS has the data; "none" never syncs (tests
// and bulk loads).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record types carried in the frame's leading payload byte. The record
// bodies are opaque to this package; core's WAL integration defines
// them, and writes its checkpoint images as frames of these same
// records. Type 1 must not be reused: logs written before the binary
// batch records hold type 1 batches of JSON terms, which recovery must
// refuse as an unknown type rather than misread.
const (
	// RecPrefix is a namespace-prefix declaration.
	RecPrefix byte = 2
	// RecDefine is a DEFINE FUNCTION / DEFINE AGGREGATE statement.
	RecDefine byte = 3
	// RecBatch is the triples one committed statement, load or write
	// deleted from and added to one graph.
	RecBatch byte = 4
	// RecClear empties one graph (CLEAR / DROP).
	RecClear byte = 5
	// RecImage opens a checkpoint or snapshot image: the log position
	// the image was taken at.
	RecImage byte = 6
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before acknowledging each commit, coalescing
	// concurrent commits into one fsync (group commit). Full
	// durability: an acknowledged update survives power loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer; acknowledged updates survive a
	// process crash but may be lost to power failure within the
	// interval.
	SyncInterval
	// SyncNone never fsyncs; the OS flushes when it pleases.
	SyncNone
)

// String returns the flag-style name of the policy (always, interval,
// none).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "none"
	}
}

// ParsePolicy resolves the -wal-sync flag values.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
}

// Options configure a log.
type Options struct {
	// Dir is the directory holding segment files (created if missing).
	Dir string
	// Policy selects the sync policy (default SyncAlways).
	Policy SyncPolicy
	// GroupWait is how long a group-commit leader dwells before
	// syncing, trading a bounded latency bump for fewer fsyncs under
	// concurrency. 0 syncs immediately.
	GroupWait time.Duration
	// Interval is the timer period for SyncInterval (default 100ms).
	Interval time.Duration
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size (default 64 MiB).
	SegmentBytes int64
	// MinLSN floors the log position: when the directory holds no
	// segments the first one is created at this base, keeping LSNs
	// monotonic across a checkpoint that consumed the whole log.
	MinLSN uint64
}

const (
	frameHeader = 8
	// maxFrameLen caps a decoded payload length: anything larger is
	// corruption, not a record (no SSDM statement serializes near it).
	maxFrameLen = 1 << 28

	segPrefix = "wal-"
	segSuffix = ".log"

	// maxKeptBuf caps the frame buffer a log keeps between appends: a
	// larger frame (a bulk load's batch) is dropped once written rather
	// than held for the log's life.
	maxKeptBuf = 64 << 10

	defaultSegmentBytes = 64 << 20
	defaultInterval     = 100 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats is a counters snapshot for /metrics and the stats op.
type Stats struct {
	Appends       int64  // records appended
	AppendedBytes int64  // frame bytes appended
	Syncs         int64  // fsyncs issued
	Commits       int64  // commit acknowledgements
	GroupedCommit int64  // commits that rode another commit's fsync
	Segments      int    // live segment files
	TailLSN       uint64 // next append position
	SyncedLSN     uint64 // everything below this is durable

	// Recovery numbers from Open: valid records found, torn/corrupt
	// bytes truncated, and how long the scan took.
	RecoveredRecords int64
	TruncatedBytes   int64
	RecoveryNanos    int64
}

// Log is an append-only write-ahead log over segment files in one
// directory. Safe for concurrent use.
type Log struct {
	dir       string
	policy    SyncPolicy
	groupWait time.Duration
	segBytes  int64

	// mu orders appends, rotation and buffer flushes.
	mu      sync.Mutex
	f       *os.File
	segBase uint64
	segOff  int64 // valid bytes in the current segment
	buf     []byte
	err     error // sticky: first I/O failure poisons the log

	// Group-commit state: the leader flag and the wait queue.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	syncing  bool
	synced   atomic.Uint64

	stopTick chan struct{}
	tickDone chan struct{}

	appends       atomic.Int64
	appendedBytes atomic.Int64
	syncs         atomic.Int64
	commits       atomic.Int64
	grouped       atomic.Int64
	recovered     int64
	truncated     int64
	recoveryNS    int64
}

type segment struct {
	path string
	base uint64
	size int64
}

// Open opens (creating if necessary) the log in opts.Dir, scans it for
// a torn or corrupt tail and truncates the log at the last valid
// frame. The returned log is ready for Replay and Append.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: no directory configured")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultInterval
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:       opts.Dir,
		policy:    opts.Policy,
		groupWait: opts.GroupWait,
		segBytes:  opts.SegmentBytes,
	}
	l.syncCond = sync.NewCond(&l.syncMu)

	t0 := time.Now()
	segs, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	if err := l.recoverTail(segs); err != nil {
		return nil, err
	}
	l.recoveryNS = time.Since(t0).Nanoseconds()

	if l.f == nil {
		// Empty directory (or everything was corrupt from byte 0):
		// start a fresh segment at the floor position.
		if err := l.openSegment(opts.MinLSN); err != nil {
			return nil, err
		}
	}
	l.synced.Store(l.tailLocked())

	if l.policy == SyncInterval {
		l.stopTick = make(chan struct{})
		l.tickDone = make(chan struct{})
		go l.tickLoop(opts.Interval)
	}
	return l, nil
}

func (l *Log) listSegments() ([]segment, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segment{path: filepath.Join(l.dir, name), base: base, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// recoverTail walks the segments in order, validating every frame. The
// first invalid frame ends the log: its segment is truncated there and
// all later segments are deleted. The last surviving segment becomes
// the append target.
func (l *Log) recoverTail(segs []segment) error {
	torn := false
	lastIdx := -1
	for i, seg := range segs {
		if torn {
			l.truncated += seg.size
			if err := os.Remove(seg.path); err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		valid, n := scanFrames(data)
		l.recovered += int64(n)
		if valid < int64(len(data)) {
			torn = true
			l.truncated += int64(len(data)) - valid
			if err := os.Truncate(seg.path, valid); err != nil {
				return err
			}
			seg.size = valid
			segs[i] = seg
		}
		lastIdx = i
	}
	if lastIdx < 0 {
		return nil
	}
	tail := segs[lastIdx]
	f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.segBase = tail.base
	l.segOff = tail.size
	return nil
}

// scanFrames returns the length of the valid frame prefix of data and
// the number of frames in it.
func scanFrames(data []byte) (int64, int) {
	off, n := 0, 0
	for {
		_, _, sz, err := DecodeFrame(data[off:])
		if err != nil {
			return int64(off), n
		}
		off += sz
		n++
	}
}

// DecodeFrame parses one frame from the head of b, returning the
// record type, its body, and the total frame size consumed. It errors
// on truncated input, an implausible length, or a CRC mismatch —
// exactly the checks recovery runs against a torn tail.
func DecodeFrame(b []byte) (typ byte, body []byte, size int, err error) {
	if len(b) == 0 {
		return 0, nil, 0, errShort
	}
	if len(b) < frameHeader {
		return 0, nil, 0, errShort
	}
	ln := binary.LittleEndian.Uint32(b[0:4])
	if ln == 0 || ln > maxFrameLen {
		return 0, nil, 0, fmt.Errorf("wal: implausible frame length %d", ln)
	}
	if len(b) < frameHeader+int(ln) {
		return 0, nil, 0, errShort
	}
	payload := b[frameHeader : frameHeader+int(ln)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return 0, nil, 0, errCRC
	}
	return payload[0], payload[1:], frameHeader + int(ln), nil
}

var (
	errShort = fmt.Errorf("wal: truncated frame")
	errCRC   = fmt.Errorf("wal: frame CRC mismatch")
)

// AppendFrame appends the frame of one record — its type byte and body —
// to dst, the bytes DecodeFrame reads back. It is what Log.Append
// writes, and what a checkpoint image is a file of. A body too large
// for a frame is an error, and dst is returned unchanged.
func AppendFrame(dst []byte, typ byte, body []byte) ([]byte, error) {
	dst, err := appendHead(dst, typ, body)
	if err != nil {
		return dst, err
	}
	return append(dst, body...), nil
}

// appendHead appends what precedes body in its frame: the length, the
// CRC of the type byte and body, and the type byte.
func appendHead(dst []byte, typ byte, body []byte) ([]byte, error) {
	if len(body)+1 > maxFrameLen {
		return dst, fmt.Errorf("wal: record of %d bytes exceeds frame limit", len(body))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)+1))
	dst = append(dst, 0, 0, 0, 0, typ) // CRC placeholder, then the type
	crc := crc32.Update(crc32.Checksum(dst[len(dst)-1:], castagnoli), castagnoli, body)
	binary.LittleEndian.PutUint32(dst[len(dst)-5:], crc)
	return dst, nil
}

func (l *Log) openSegment(base uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s%016d%s", segPrefix, base, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.segBase = base
	l.segOff = 0
	return nil
}

func (l *Log) tailLocked() uint64 { return l.segBase + uint64(l.segOff) }

// TailLSN returns the position the next append will receive.
func (l *Log) TailLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailLocked()
}

// SyncedLSN returns the position below which the log is durable (under
// SyncAlways) or at least handed to the OS (other policies).
func (l *Log) SyncedLSN() uint64 { return l.synced.Load() }

// Append writes one record and returns its LSN. The record is in the
// OS pipeline but not yet durable; call Commit (or Sync) to make it
// so. Append fails permanently once any log I/O has failed.
func (l *Log) Append(typ byte, body []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.f == nil {
		return 0, fmt.Errorf("wal: log is closed")
	}
	// A small record goes out in one write from the kept buffer; a
	// larger one as its head, then its body as it is, never copied.
	buf, err := appendHead(l.buf[:0], typ, body)
	if err != nil {
		return 0, err
	}
	if len(buf)+len(body) <= maxKeptBuf {
		buf, body = append(buf, body...), nil
	}
	if cap(buf) <= maxKeptBuf {
		l.buf = buf
	}
	size := int64(len(buf) + len(body))
	if l.segOff > 0 && l.segOff+size > l.segBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	lsn := l.tailLocked()
	_, err = l.f.Write(buf)
	if err == nil && len(body) > 0 {
		_, err = l.f.Write(body)
	}
	if err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return 0, l.err
	}
	l.segOff += size
	l.appends.Add(1)
	l.appendedBytes.Add(size)
	return lsn, nil
}

// rotateLocked syncs and closes the current segment and starts the
// next one at the current tail.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: rotate sync: %w", err)
		return l.err
	}
	next := l.tailLocked()
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: rotate close: %w", err)
		return l.err
	}
	if err := l.openSegment(next); err != nil {
		l.err = fmt.Errorf("wal: rotate open: %w", err)
		return l.err
	}
	return nil
}

// Commit makes the record at lsn durable according to the sync policy
// and returns once it is safe to acknowledge the update to the client.
// Under SyncAlways concurrent commits coalesce into one fsync.
func (l *Log) Commit(lsn uint64) error {
	l.commits.Add(1)
	switch l.policy {
	case SyncNone, SyncInterval:
		// Records are written straight to the file (OS pipeline) at
		// append time; nothing further gates the acknowledgement.
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		return err
	}
	for {
		if l.synced.Load() >= lsn+1 {
			l.grouped.Add(1)
			l.mu.Lock()
			err := l.err
			l.mu.Unlock()
			return err
		}
		l.syncMu.Lock()
		if l.synced.Load() >= lsn+1 {
			l.syncMu.Unlock()
			continue // re-enter the fast path for the error check
		}
		if l.syncing {
			l.syncCond.Wait()
			l.syncMu.Unlock()
			continue
		}
		l.syncing = true
		l.syncMu.Unlock()

		if l.groupWait > 0 {
			time.Sleep(l.groupWait)
		}
		err := l.doSync()

		l.syncMu.Lock()
		l.syncing = false
		l.syncCond.Broadcast()
		l.syncMu.Unlock()
		return err
	}
}

// doSync fsyncs the current segment and advances the synced watermark
// to the tail as of the flush.
func (l *Log) doSync() error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.f == nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: log is closed")
	}
	target := l.tailLocked()
	err := l.f.Sync()
	if err != nil {
		l.err = fmt.Errorf("wal: sync: %w", err)
		l.mu.Unlock()
		return l.err
	}
	l.mu.Unlock()
	l.syncs.Add(1)
	// Monotonic: only one syncer runs at a time (the group-commit
	// leader, the interval ticker never overlaps it harmfully — a
	// stale smaller store would only cause an extra sync).
	for {
		cur := l.synced.Load()
		if cur >= target || l.synced.CompareAndSwap(cur, target) {
			return nil
		}
	}
}

// Sync forces a flush+fsync regardless of policy — the shutdown path.
func (l *Log) Sync() error {
	return l.doSync()
}

func (l *Log) tickLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	defer close(l.tickDone)
	for {
		select {
		case <-l.stopTick:
			return
		case <-t.C:
			_ = l.doSync()
		}
	}
}

// Replay streams every valid record at or after from, in order, to fn.
// It reads the segment files directly and must run before concurrent
// appends start (the manager replays during startup recovery).
func (l *Log) Replay(from uint64, fn func(lsn uint64, typ byte, body []byte) error) error {
	segs, err := l.listSegments()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.base+uint64(seg.size) <= from {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		off := int64(0)
		for int(off) < len(data) {
			typ, body, sz, err := DecodeFrame(data[off:])
			if err != nil {
				// Open truncated invalid tails; hitting one here means
				// the log changed underfoot.
				return fmt.Errorf("wal: segment %s invalid at %d: %w", seg.path, off, err)
			}
			lsn := seg.base + uint64(off)
			if lsn >= from {
				if err := fn(lsn, typ, body); err != nil {
					return err
				}
			}
			off += int64(sz)
		}
	}
	return nil
}

// Checkpoint informs the log that state up to upTo is captured in a
// checkpoint image: the log rotates to a fresh segment and deletes
// segments wholly below upTo, bounding replay work and disk use.
func (l *Log) Checkpoint(upTo uint64) error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.segOff > 0 {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	cur := l.segBase
	l.mu.Unlock()

	segs, err := l.listSegments()
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.base == cur {
			continue
		}
		if seg.base+uint64(seg.size) <= upTo {
			if err := os.Remove(seg.path); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats returns a counters snapshot.
func (l *Log) Stats() Stats {
	st := Stats{
		Appends:          l.appends.Load(),
		AppendedBytes:    l.appendedBytes.Load(),
		Syncs:            l.syncs.Load(),
		Commits:          l.commits.Load(),
		GroupedCommit:    l.grouped.Load(),
		TailLSN:          l.TailLSN(),
		SyncedLSN:        l.synced.Load(),
		RecoveredRecords: l.recovered,
		TruncatedBytes:   l.truncated,
		RecoveryNanos:    l.recoveryNS,
	}
	if segs, err := l.listSegments(); err == nil {
		st.Segments = len(segs)
	}
	return st
}

// Close syncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	if l.stopTick != nil {
		close(l.stopTick)
		<-l.tickDone
		l.stopTick = nil
	}
	err := l.doSync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}
