package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"scisparql/internal/engine"
	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
	"scisparql/internal/storage"
	"scisparql/internal/wal"
)

// ErrDurability reports that the write-ahead log could not accept or
// persist an update: the statement's effect is not guaranteed to
// survive a restart and the caller must treat it as failed. Once the
// log fails it stays failed (the first I/O error poisons it), so every
// subsequent update returns this error until the operator intervenes —
// servers map it to 503 Service Unavailable.
var ErrDurability = errors.New("ssdm: durability failure (write-ahead log unavailable)")

func durErr(err error) error {
	return fmt.Errorf("%w: %v", ErrDurability, err)
}

// --- record payloads -------------------------------------------------
//
// A batch record holds the triples one statement, load or write call
// deleted from and added to one graph, as two width-3 row tables
// (protocol.EncodeRows, the bytes the triples op ships):
//
//	uvarint  n, then n bytes: the graph name ("" the default graph)
//	uvarint  the graph's blank-node counter after the batch
//	uvarint  n, then n bytes: the deletes table
//	         the adds table, to the end of the body
//
// Replay applies the deletes before the adds, so walAppendBatch refuses
// ops that hold an add before a delete. A clear is a record of its own
// whose body is the graph name; prefix and define records are JSON.
// Proxied arrays are persisted as ssdm:fileLink literals (the array data
// lives in the back-end, which is durable on its own) and re-resolve at
// replay.

// recPrefix is a namespace-prefix declaration.
type recPrefix struct {
	Name string `json:"name"`
	NS   string `json:"ns"`
}

// recDefine is a DEFINE FUNCTION/AGGREGATE: the source script and the
// statement's index within it (replayed by re-parsing, which keeps the
// log independent of AST encodings).
type recDefine struct {
	Script string `json:"script"`
	Index  int    `json:"i,omitempty"`
}

// appendBatch appends a batch record's body to dst. It rewrites the
// rows' proxied arrays to file links in place.
func appendBatch(dst []byte, graph rdf.IRI, blankNo int64, dels, adds [][]rdf.Term) ([]byte, error) {
	var tables [2][]byte
	for i, rows := range [2][][]rdf.Term{dels, adds} {
		if err := linkArrays(rows); err != nil {
			return nil, err
		}
		t, err := protocol.EncodeRows(rows, 3)
		if err != nil {
			return nil, err
		}
		defer protocol.Release(t)
		tables[i] = t
	}
	dst = append(binary.AppendUvarint(dst, uint64(len(graph))), graph...)
	dst = binary.AppendUvarint(dst, uint64(blankNo))
	dst = append(binary.AppendUvarint(dst, uint64(len(tables[0]))), tables[0]...)
	return append(dst, tables[1]...), nil
}

var errBatchHeader = errors.New("malformed header")

// decodeBatch reads a batch record's body. Its rows are three bound
// terms with an IRI predicate; their texts share body's memory.
func decodeBatch(body []byte) (graph rdf.IRI, blankNo int64, dels, adds [][]rdf.Term, err error) {
	n, k := binary.Uvarint(body)
	if k <= 0 || n > uint64(len(body)-k) {
		return "", 0, nil, nil, errBatchHeader
	}
	graph, body = rdf.IRI(body[k:k+int(n)]), body[k+int(n):]
	blank, k := binary.Uvarint(body)
	if k <= 0 || blank > math.MaxInt64 {
		return "", 0, nil, nil, errBatchHeader
	}
	body = body[k:]
	if n, k = binary.Uvarint(body); k <= 0 || n > uint64(len(body)-k) {
		return "", 0, nil, nil, errBatchHeader
	}
	if dels, err = protocol.DecodeRows(body[k : k+int(n)]); err == nil {
		adds, err = protocol.DecodeRows(body[k+int(n):])
	}
	if err == nil {
		if err = checkTriples(dels); err == nil {
			err = checkTriples(adds)
		}
	}
	return graph, int64(blank), dels, adds, err
}

// linkArrays rewrites each row's whole-base proxied array object to its
// ssdm:fileLink literal, in place: the back-end keeps the array, the log
// and the image keep the link. resolveLinks is its inverse.
func linkArrays(rows [][]rdf.Term) error {
	for _, row := range rows {
		at, ok := row[2].(rdf.Array)
		if !ok || at.A.Base.Proxy == nil {
			continue
		}
		if !at.A.IsWholeBase() {
			return errors.New("ssdm: cannot persist a partial proxied view")
		}
		row[2] = rdf.Typed{Lexical: strconv.FormatInt(at.A.Base.Proxy.ArrayID, 10), Datatype: rdf.SSDMFileLink}
	}
	return nil
}

// resolveLinks opens each row's ssdm:fileLink object on back-end b, in
// place; with no back-end the links stay literals.
func resolveLinks(rows [][]rdf.Term, b storage.Backend) error {
	if b == nil {
		return nil
	}
	for _, row := range rows {
		link, ok := row[2].(rdf.Typed)
		if !ok || link.Datatype != rdf.SSDMFileLink {
			continue
		}
		id, err := strconv.ParseInt(link.Lexical, 10, 64)
		if err != nil {
			return fmt.Errorf("ssdm: bad file link %q", link.Lexical)
		}
		a, err := b.Open(id)
		if err != nil {
			return fmt.Errorf("ssdm: file link %q: %w", link.Lexical, err)
		}
		row[2] = rdf.NewArray(a)
	}
	return nil
}

// --- append side -----------------------------------------------------

// walEnabled reports whether updates must be logged. Holding s.op in
// either mode is enough to read s.wal: it is assigned once, before the
// instance accepts operations.
func (s *SSDM) walEnabled() bool { return s.wal != nil }

// walAppend appends one record and returns its LSN. It does not wait
// for durability — the caller publishes the in-memory commit first and
// then gates its acknowledgement on walFinish, so concurrent updates
// coalesce into one fsync.
func (s *SSDM) walAppend(typ byte, body []byte) (uint64, error) {
	lsn, err := s.wal.Append(typ, body)
	if err != nil {
		return 0, durErr(err)
	}
	return lsn, nil
}

// walAppendBatch appends the batch record of a transaction's recorded
// ops against graph, with blank counter blankNo: its deletes, then its
// adds.
func (s *SSDM) walAppendBatch(graph rdf.IRI, ops []rdf.Op, blankNo int64) (uint64, error) {
	cells := make([]rdf.Term, 0, 3*len(ops))
	rows := make([][]rdf.Term, 0, len(ops))
	ndel := 0
	for _, op := range ops {
		if op.Kind == rdf.OpDelete {
			if ndel < len(rows) {
				return 0, errors.New("ssdm: a batch record cannot hold an add before a delete")
			}
			ndel++
		}
		cells = append(cells, op.S, op.P, op.O)
		rows = append(rows, cells[len(cells)-3:])
	}
	body, err := appendBatch(nil, graph, blankNo, rows[:ndel], rows[ndel:])
	if err != nil {
		return 0, err
	}
	return s.walAppend(wal.RecBatch, body)
}

func (s *SSDM) walAppendDefine(script string, index int) (uint64, error) {
	body, err := json.Marshal(recDefine{Script: script, Index: index})
	if err != nil {
		return 0, err
	}
	return s.walAppend(wal.RecDefine, body)
}

// walFinish waits until the record at lsn is durable per the sync
// policy. An error means the acknowledgement must not be sent.
func (s *SSDM) walFinish(lsn uint64) error {
	if err := s.wal.Commit(lsn); err != nil {
		return durErr(err)
	}
	return nil
}

// walLogPrefix best-effort logs a prefix declaration. SetPrefix has no
// error return; a log failure is sticky and will surface on the next
// update, so swallowing it here loses nothing.
func (s *SSDM) walLogPrefix(name, ns string) {
	if !s.walEnabled() {
		return
	}
	body, err := json.Marshal(recPrefix{Name: name, NS: ns})
	if err != nil {
		return
	}
	if lsn, err := s.wal.Append(wal.RecPrefix, body); err == nil {
		_ = s.wal.Commit(lsn)
	}
}

// --- checkpointing ---------------------------------------------------

const (
	checkpointName = "checkpoint.snap"

	// DefaultWALCheckpointBytes is how much log accrues before the
	// manager checkpoints automatically.
	DefaultWALCheckpointBytes = 64 << 20
)

// Checkpoint writes a checkpoint image — a snapshot image naming the
// log position it was taken at — and truncates the log behind it. It
// runs under the operation write lock: queries proceed unaffected (they
// read pinned snapshots), only writers wait.
func (s *SSDM) Checkpoint() error {
	s.op.Lock()
	defer s.op.Unlock()
	if !s.walEnabled() {
		return fmt.Errorf("ssdm: no write-ahead log enabled")
	}
	return s.checkpointLocked()
}

// maybeCheckpointLocked checkpoints when the log has grown past the
// configured threshold since the last image.
func (s *SSDM) maybeCheckpointLocked() {
	if !s.walEnabled() {
		return
	}
	limit := s.Opts.WALCheckpointBytes
	if limit == 0 {
		limit = DefaultWALCheckpointBytes
	}
	if limit < 0 {
		return
	}
	if s.wal.TailLSN()-s.lastCkptLSN < uint64(limit) {
		return
	}
	// A failed auto-checkpoint must not fail the update that tripped
	// it: the update is already in the log, so durability holds — the
	// log just stays long. The error surfaces on explicit Checkpoint
	// or shutdown.
	_ = s.checkpointLocked()
}

func (s *SSDM) checkpointLocked() error {
	lsn := s.wal.TailLSN()
	if err := s.writeImage(filepath.Join(s.Opts.WALDir, checkpointName), lsn); err != nil {
		return err
	}
	if err := s.wal.Checkpoint(lsn); err != nil {
		return err
	}
	s.lastCkptLSN = lsn
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives power
// loss. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// --- recovery --------------------------------------------------------

// RecoveryInfo summarizes what EnableWAL restored.
type RecoveryInfo struct {
	// Checkpoint reports whether a checkpoint image was restored.
	Checkpoint bool
	// Records is the number of log records replayed over it.
	Records int64
	// Duration is the total recovery wall time (image load + replay).
	Duration time.Duration
}

// EnableWAL opens the write-ahead log in Opts.WALDir, recovers the
// dataset to the last committed state (checkpoint image plus log
// replay, truncating any torn tail), and arms logging: from here on
// every update, load, prefix and define is appended and acknowledged
// per Opts.WALSync. Call it once, after AttachBackend and before
// serving; it is not safe to enable while operations are in flight.
func (s *SSDM) EnableWAL() (RecoveryInfo, error) {
	var info RecoveryInfo
	if s.Opts.WALDir == "" {
		return info, fmt.Errorf("ssdm: Options.WALDir not set")
	}
	if s.walEnabled() {
		return info, fmt.Errorf("ssdm: write-ahead log already enabled")
	}
	policy, err := wal.ParsePolicy(s.Opts.WALSync)
	if err != nil {
		return info, err
	}
	t0 := time.Now()

	s.op.Lock()
	defer s.op.Unlock()
	var lsn uint64
	path := filepath.Join(s.Opts.WALDir, checkpointName)
	switch image, err := os.ReadFile(path); {
	case err == nil:
		info.Checkpoint = true
		if lsn, err = s.replayImage(image, path); err != nil {
			return info, fmt.Errorf("ssdm: checkpoint restore: %w", err)
		}
	case !os.IsNotExist(err):
		return info, err
	}
	l, err := wal.Open(wal.Options{
		Dir:       s.Opts.WALDir,
		Policy:    policy,
		GroupWait: s.Opts.WALGroupWait,
		MinLSN:    lsn,
	})
	if err != nil {
		return info, err
	}
	err = l.Replay(lsn, func(lsn uint64, typ byte, body []byte) error {
		info.Records++
		return s.applyWalRecord(typ, body)
	})
	if err != nil {
		l.Close()
		return info, fmt.Errorf("ssdm: log replay: %w", err)
	}

	s.wal = l
	s.lastCkptLSN = lsn
	info.Duration = time.Since(t0)
	s.recovery = info
	s.qcache.invalidate()
	return info, nil
}

// RecoveryStats returns what the last EnableWAL restored (zero value
// when the WAL is disabled).
func (s *SSDM) RecoveryStats() RecoveryInfo { return s.recovery }

// WALStats merges the log's counters with the manager's recovery info.
// Zero-valued (Enabled false) when the WAL is disabled.
type WALStats struct {
	Enabled bool
	wal.Stats
	Recovery RecoveryInfo
}

// WALStats reports write-ahead-log activity for /metrics and the wire
// stats op.
func (s *SSDM) WALStats() WALStats {
	if !s.walEnabled() {
		return WALStats{}
	}
	return WALStats{Enabled: true, Stats: s.wal.Stats(), Recovery: s.recovery}
}

// FlushWAL forces everything appended so far to disk regardless of the
// sync policy — the shutdown path.
func (s *SSDM) FlushWAL() error {
	if !s.walEnabled() {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		return durErr(err)
	}
	return nil
}

// CloseWAL syncs and closes the log. The instance must not accept
// further updates.
func (s *SSDM) CloseWAL() error {
	if !s.walEnabled() {
		return nil
	}
	return s.wal.Close()
}

// applyWalRecord applies one log or image record. The caller holds the
// operation write lock, and the applications are direct: a replayed
// record is not logged again.
func (s *SSDM) applyWalRecord(typ byte, body []byte) error {
	switch typ {
	case wal.RecBatch:
		if err := s.applyBatch(body); err != nil {
			return fmt.Errorf("batch record: %w", err)
		}
		return nil
	case wal.RecClear:
		if len(body) == 0 {
			s.Dataset.Default.Clear()
		} else {
			s.Dataset.DropNamed(rdf.IRI(body))
		}
		return nil
	case wal.RecPrefix:
		var rec recPrefix
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("prefix record: %w", err)
		}
		s.mu.Lock()
		s.Prefixes[rec.Name] = rec.NS
		s.mu.Unlock()
		return nil
	case wal.RecDefine:
		var rec recDefine
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("define record: %w", err)
		}
		if err := s.applyDefine(rec); err != nil {
			return err
		}
		s.defines = append(s.defines, rec)
		return nil
	default:
		return fmt.Errorf("unknown record type %d", typ)
	}
}

// applyBatch applies a batch record as one transaction. Added terms are
// copied out of the record, so the dictionary does not pin the log
// segment or image it was read from.
func (s *SSDM) applyBatch(body []byte) error {
	graph, blankNo, dels, adds, err := decodeBatch(body)
	if err != nil {
		return err
	}
	if err := resolveLinks(protocol.OwnTerms(adds), s.Backend()); err != nil {
		return err
	}
	g := s.targetGraph(graph)
	tx := g.Begin()
	for _, row := range dels {
		tx.Delete(row[0], row[1], row[2])
	}
	for _, row := range adds {
		tx.Add(row[0], row[1], row[2])
	}
	tx.Commit()
	g.EnsureBlankNo(blankNo)
	return nil
}

// applyDefine re-executes a logged DEFINE by re-parsing its script.
func (s *SSDM) applyDefine(rec recDefine) error {
	stmts, err := sparql.ParseAll(rec.Script)
	if err != nil {
		return err
	}
	if rec.Index < 0 || rec.Index >= len(stmts) {
		return fmt.Errorf("define index %d out of range (%d statements)", rec.Index, len(stmts))
	}
	_, err = s.Engine.UpdateLimits(context.Background(), stmts[rec.Index], s.FillLimits(engine.Limits{}))
	return err
}
