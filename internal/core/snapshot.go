package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/wal"
)

// Snapshotting (dissertation §2.2.3): SSDM's graphs are main-memory
// structures; an image is dumped to disk and loaded back to survive
// restarts. An image is written in the write-ahead log's own records,
// one frame after another:
//
//	image    the log position it was taken at (0 for a snapshot)
//	prefix   one per declared prefix
//	define   one per DEFINE the instance replays
//	batch    each graph's triples as adds, at most imageBatchRows a
//	         record, each with the graph's blank-node counter
//
// so restoring one is replaying it: labels, counters and every term
// come back as they were. A checkpoint is the image of a WAL instance.

// imageBatchRows and imageBatchBytes bound one batch record of an image
// — its triples, and the elements of the resident arrays among them —
// so that no frame nears the log's frame limit however large a graph
// grows.
const (
	imageBatchRows  = 1 << 14
	imageBatchBytes = 64 << 20
)

// errCoordinatorImage refuses snapshots on a shard coordinator, whose
// own graphs hold none of the data its shards do.
var errCoordinatorImage = fmt.Errorf("ssdm: snapshots on a shard coordinator: %w (snapshot each shard)", errors.ErrUnsupported)

// SaveSnapshot writes the whole dataset to path as an image. It takes
// the operation lock's read side, which excludes writers (but not
// queries, which need no lock), so the image is cross-graph consistent.
// A coordinator refuses it with errors.ErrUnsupported.
func (s *SSDM) SaveSnapshot(path string) error {
	if s.dist != nil {
		return errCoordinatorImage
	}
	s.op.RLock()
	defer s.op.RUnlock()
	return s.writeImage(path, 0)
}

// LoadSnapshot restores an image written by SaveSnapshot (or a
// checkpoint) into this instance, merging into existing graphs, by
// replaying its records as one exclusive operation. Blank labels are
// kept as written, file links resolve against the currently attached
// back-end. Replayed records are not logged, so on a WAL instance the
// load ends with a checkpoint. A coordinator refuses it with
// errors.ErrUnsupported.
func (s *SSDM) LoadSnapshot(path string) error {
	if s.dist != nil {
		return errCoordinatorImage
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s.op.Lock()
	defer s.op.Unlock()
	_, err = s.replayImage(data, path)
	s.qcache.invalidate()
	if err == nil && s.walEnabled() {
		err = s.checkpointLocked()
	}
	return err
}

// replayImage applies the records of the image data, read from path,
// and returns the log position it was taken at. The caller holds the
// operation write lock.
func (s *SSDM) replayImage(data []byte, path string) (uint64, error) {
	typ, body, n, err := wal.DecodeFrame(data)
	lsn, k := binary.Uvarint(body)
	if err != nil || typ != wal.RecImage || k != len(body) {
		return 0, fmt.Errorf("ssdm: %s is not an image", path)
	}
	for data = data[n:]; len(data) > 0; data = data[n:] {
		if typ, body, n, err = wal.DecodeFrame(data); err == nil {
			err = s.applyWalRecord(typ, body)
		}
		if err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// writeImage writes the image taken at lsn to a temporary file beside
// path, syncs it and renames it over path, so a crash leaves either the
// old image or the new one. The caller holds the operation lock (either
// side: writers are excluded both ways).
func (s *SSDM) writeImage(path string, lsn uint64) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err = s.encodeImage(w, lsn); err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// encodeImage writes the image's records to w.
func (s *SSDM) encodeImage(w io.Writer, lsn uint64) error {
	var frame []byte
	put := func(typ byte, body []byte, err error) error {
		if err == nil {
			frame, err = wal.AppendFrame(frame[:0], typ, body)
		}
		if err == nil {
			_, err = w.Write(frame)
		}
		return err
	}
	if err := put(wal.RecImage, binary.AppendUvarint(nil, lsn), nil); err != nil {
		return err
	}
	prefixes := s.prefixSnapshot()
	for _, name := range slices.Sorted(maps.Keys(prefixes)) {
		body, err := json.Marshal(recPrefix{Name: name, NS: prefixes[name]})
		if err := put(wal.RecPrefix, body, err); err != nil {
			return err
		}
	}
	for _, d := range s.defines {
		body, err := json.Marshal(d)
		if err := put(wal.RecDefine, body, err); err != nil {
			return err
		}
	}
	var (
		rows  = make([]rdf.Triple, 0, imageBatchRows)
		batch []byte
	)
	for _, name := range append([]rdf.IRI{""}, s.Dataset.GraphNames()...) {
		g := s.readGraph(name)
		// Every graph gets at least one record, so that an empty named
		// graph and a blank-node counter come back too.
		flush := func() (err error) {
			batch, err = appendBatch(batch[:0], g, name, tripleRows(nil), tripleRows(rows))
			rows = rows[:0]
			return put(wal.RecBatch, batch, err)
		}
		var (
			err   error
			bytes int
		)
		g.Match(0, 0, 0, func(t rdf.Triple) bool {
			rows = append(rows, t)
			if at, ok := g.TermOf(t.O).(rdf.Array); ok && at.A.Base.Resident() {
				bytes += at.A.Count() * array.ElemSize
			}
			if len(rows) == cap(rows) || bytes >= imageBatchBytes {
				err, bytes = flush(), 0
			}
			return err == nil
		})
		if err == nil {
			err = flush()
		}
		if err != nil {
			return err
		}
	}
	return nil
}
