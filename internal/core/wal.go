package core

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"scisparql/internal/engine"
	"scisparql/internal/loader"
	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
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
// WAL record bodies are JSON, using the wire-protocol term encoding so
// every RDF term — arrays included — round-trips. Proxied arrays are
// logged as ssdm:fileLink literals (the array data itself lives in the
// back-end, which is durable on its own) and re-resolve at replay.

// walOp is one physical operation. K follows rdf.OpKind: 0 add,
// 1 delete, 2 clear (terms absent).
type walOp struct {
	K uint8          `json:"k"`
	S *protocol.Term `json:"s,omitempty"`
	P *protocol.Term `json:"p,omitempty"`
	O *protocol.Term `json:"o,omitempty"`
}

// recBatch is one committed statement or load: the physical triple
// operations against one graph, plus the graph's blank-node counter
// after the batch so replayed NewBlank sequences cannot collide.
type recBatch struct {
	Graph string  `json:"g,omitempty"`
	Ops   []walOp `json:"ops,omitempty"`
	Blank int64   `json:"bn,omitempty"`
}

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

// walTerm encodes a term for the log, mapping whole-base proxied
// arrays to file links exactly as snapshots do.
func walTerm(t rdf.Term) (*protocol.Term, error) {
	if at, ok := t.(rdf.Array); ok && at.A.Base.Proxy != nil {
		if !at.A.IsWholeBase() {
			return nil, fmt.Errorf("ssdm: cannot log a partial proxied view")
		}
		return &protocol.Term{T: "typed", S: fmt.Sprintf("%d", at.A.Base.Proxy.ArrayID), Dt: string(rdf.SSDMFileLink)}, nil
	}
	pt, err := protocol.EncodeTerm(t)
	if err != nil {
		return nil, err
	}
	return &pt, nil
}

func walOpOf(op rdf.Op) (walOp, error) {
	w := walOp{K: uint8(op.Kind)}
	if op.Kind == rdf.OpClear {
		return w, nil
	}
	var err error
	if w.S, err = walTerm(op.S); err != nil {
		return w, err
	}
	if w.P, err = walTerm(op.P); err != nil {
		return w, err
	}
	if w.O, err = walTerm(op.O); err != nil {
		return w, err
	}
	return w, nil
}

// --- append side -----------------------------------------------------

// walEnabled reports whether updates must be logged. Holding s.op in
// either mode is enough to read s.wal: it is assigned once, before the
// instance accepts operations.
func (s *SSDM) walEnabled() bool { return s.wal != nil }

// walAppendBatch encodes and appends one batch record, returning its
// LSN. It does not wait for durability — the caller publishes the
// in-memory commit first and then gates its acknowledgement on
// walFinish, so concurrent updates coalesce into one fsync.
func (s *SSDM) walAppendBatch(graph rdf.IRI, ops []rdf.Op, blankNo int64) (uint64, error) {
	rec := recBatch{Graph: string(graph), Blank: blankNo}
	rec.Ops = make([]walOp, 0, len(ops))
	for _, op := range ops {
		w, err := walOpOf(op)
		if err != nil {
			return 0, err
		}
		rec.Ops = append(rec.Ops, w)
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	lsn, err := s.wal.Append(wal.RecBatch, body)
	if err != nil {
		return 0, durErr(err)
	}
	return lsn, nil
}

func (s *SSDM) walAppendDefine(script string, index int) (uint64, error) {
	body, err := json.Marshal(recDefine{Script: script, Index: index})
	if err != nil {
		return 0, err
	}
	lsn, err := s.wal.Append(wal.RecDefine, body)
	if err != nil {
		return 0, durErr(err)
	}
	return lsn, nil
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
	checkpointName   = "checkpoint.snap"
	checkpointTmp    = "checkpoint.tmp"
	checkpointHeader = "#ssdm-checkpoint 1"
	metaPrefix       = "#meta "

	// DefaultWALCheckpointBytes is how much log accrues before the
	// manager checkpoints automatically.
	DefaultWALCheckpointBytes = 64 << 20
)

// ckptMeta is the checkpoint's JSON header: where in the log the image
// was taken, plus the non-triple state a snapshot section cannot carry.
type ckptMeta struct {
	LSN      uint64            `json:"lsn"`
	Prefixes map[string]string `json:"prefixes,omitempty"`
	Defines  []recDefine       `json:"defines,omitempty"`
	BlankNos map[string]int64  `json:"blank_nos,omitempty"`
}

// Checkpoint writes a checkpoint image (full dataset snapshot plus
// prefix/define state) and truncates the log behind it. It runs under
// the operation write lock: queries proceed unaffected (they read
// pinned snapshots), only writers wait.
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
	meta := ckptMeta{
		LSN:      lsn,
		Prefixes: s.prefixSnapshot(),
		Defines:  append([]recDefine(nil), s.defines...),
		BlankNos: map[string]int64{},
	}
	if n := s.Dataset.Default.BlankNo(); n > 0 {
		meta.BlankNos["default"] = n
	}
	for _, name := range s.Dataset.GraphNames() {
		if g := s.Dataset.Named(name, false); g != nil {
			if n := g.BlankNo(); n > 0 {
				meta.BlankNos[string(name)] = n
			}
		}
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}

	tmp := filepath.Join(s.Opts.WALDir, checkpointTmp)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, checkpointHeader)
	fmt.Fprintln(w, metaPrefix+string(mb))
	if err := s.writeSnapshotBody(w); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.Opts.WALDir, checkpointName)); err != nil {
		return err
	}
	syncDir(s.Opts.WALDir)
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

	meta, snapText, haveCkpt, err := s.readCheckpoint()
	if err != nil {
		return info, err
	}
	l, err := wal.Open(wal.Options{
		Dir:       s.Opts.WALDir,
		Policy:    policy,
		GroupWait: s.Opts.WALGroupWait,
		MinLSN:    meta.LSN,
	})
	if err != nil {
		return info, err
	}

	s.op.Lock()
	defer s.op.Unlock()
	if haveCkpt {
		info.Checkpoint = true
		s.mu.Lock()
		for k, v := range meta.Prefixes {
			s.Prefixes[k] = v
		}
		s.mu.Unlock()
		if snapText != "" {
			if err := s.loadSnapshotTextLocked(snapText); err != nil {
				l.Close()
				return info, fmt.Errorf("ssdm: checkpoint restore: %w", err)
			}
		}
		for name, n := range meta.BlankNos {
			var graph rdf.IRI
			if name != "default" {
				graph = rdf.IRI(name)
			}
			s.targetGraph(graph).EnsureBlankNo(n)
		}
		for _, d := range meta.Defines {
			if err := s.applyDefine(d); err != nil {
				l.Close()
				return info, fmt.Errorf("ssdm: checkpoint define: %w", err)
			}
		}
		s.defines = append([]recDefine(nil), meta.Defines...)
	}

	err = l.Replay(meta.LSN, func(lsn uint64, typ byte, body []byte) error {
		info.Records++
		return s.applyWalRecord(typ, body)
	})
	if err != nil {
		l.Close()
		return info, fmt.Errorf("ssdm: log replay: %w", err)
	}

	s.wal = l
	s.lastCkptLSN = meta.LSN
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

// readCheckpoint loads and splits the checkpoint file: meta header and
// the snapshot text after it.
func (s *SSDM) readCheckpoint() (ckptMeta, string, bool, error) {
	var meta ckptMeta
	data, err := os.ReadFile(filepath.Join(s.Opts.WALDir, checkpointName))
	if err != nil {
		if os.IsNotExist(err) {
			return meta, "", false, nil
		}
		return meta, "", false, err
	}
	text := string(data)
	head, rest, _ := strings.Cut(text, "\n")
	if strings.TrimSpace(head) != checkpointHeader {
		return meta, "", false, fmt.Errorf("ssdm: %s is not a checkpoint file", checkpointName)
	}
	metaLine, snapText, _ := strings.Cut(rest, "\n")
	if !strings.HasPrefix(metaLine, metaPrefix) {
		return meta, "", false, fmt.Errorf("ssdm: checkpoint is missing its meta header")
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(metaLine, metaPrefix)), &meta); err != nil {
		return meta, "", false, fmt.Errorf("ssdm: checkpoint meta: %w", err)
	}
	return meta, snapText, true, nil
}

// applyWalRecord replays one log record during recovery. The caller
// holds the operation write lock and the WAL is not yet armed, so the
// applications are direct (not re-logged).
func (s *SSDM) applyWalRecord(typ byte, body []byte) error {
	switch typ {
	case wal.RecBatch:
		var rec recBatch
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("batch record: %w", err)
		}
		return s.applyBatch(rec)
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

func (s *SSDM) applyBatch(rec recBatch) error {
	graph := rdf.IRI(rec.Graph)
	hasLink := false
	// The batch's triple ops replay as one transaction; a clear, which
	// is its own published version (or replaces the graph), ends it.
	var tx *rdf.Tx
	commit := func() {
		if tx != nil {
			tx.Commit()
			tx = nil
		}
	}
	defer commit()
	for _, op := range rec.Ops {
		if rdf.OpKind(op.K) == rdf.OpClear {
			commit()
			if rec.Graph == "" {
				s.Dataset.Default.Clear()
			} else {
				s.Dataset.DropNamed(graph)
			}
			continue
		}
		st, err := protocol.DecodeTerm(*op.S)
		if err != nil {
			return err
		}
		pt, err := protocol.DecodeTerm(*op.P)
		if err != nil {
			return err
		}
		ot, err := protocol.DecodeTerm(*op.O)
		if err != nil {
			return err
		}
		if tt, ok := ot.(rdf.Typed); ok && tt.Datatype == rdf.SSDMFileLink {
			hasLink = true
		}
		if tx == nil {
			tx = s.targetGraph(graph).Begin()
		}
		switch rdf.OpKind(op.K) {
		case rdf.OpAdd:
			tx.Add(st, pt, ot)
		case rdf.OpDelete:
			tx.Delete(st, pt, ot)
		default:
			return fmt.Errorf("unknown op kind %d", op.K)
		}
	}
	commit()
	if rec.Blank > 0 {
		s.targetGraph(graph).EnsureBlankNo(rec.Blank)
	}
	if hasLink {
		if b := s.Backend(); b != nil {
			if _, err := loader.ResolveFileLinks(s.targetGraph(graph), b); err != nil {
				return err
			}
		}
	}
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
