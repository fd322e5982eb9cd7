// Package filestore is the binary-file ASEI back-end: each array lives
// in its own chunked binary file under a directory. It realizes the
// file-link scenario of the dissertation (§2.5, §5.3.1, §7): massive
// numeric data stays in files — as it does for Matlab .mat-file users —
// while SSDM's RDF graph holds proxies; chunking and caching beyond the
// proxy cache is left to the OS page cache, exactly as the text
// describes.
package filestore

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"scisparql/internal/array"
	"scisparql/internal/spd"
	"scisparql/internal/storage"
)

const magic = uint32(0x53534d41) // "SSMA"

// header layout: magic u32, etype u8, pad u8, ndims u16, chunkElems
// u32, shape i64 * ndims, then the raw element payload.
func headerSize(ndims int) int64 { return 4 + 1 + 1 + 2 + 4 + 8*int64(ndims) }

// Store is a directory-backed array store. It is safe for concurrent
// readers: chunk reads are positioned reads (pread) on shared file
// handles, which the OS serves concurrently. Read the experiment
// counters through Stats when other goroutines may still be reading.
// Chunks are read into frames of the array's chunk size, which the
// chunk cache hands back through RecycleChunk for later reads.
type Store struct {
	dir string

	// SimulatedLatency, when positive, charges this much wall-clock
	// latency to every physical read request, modeling a store where
	// each chunk fetch is a network round trip (NFS, object storage)
	// rather than a page-cache hit. With it set, contiguous runs are
	// *not* coalesced into one pread — each chunk is an independent
	// request, as it would be against a chunk-per-object store — which
	// is what gives the fetch worker pool latency to hide. Set it
	// before the store is shared.
	SimulatedLatency time.Duration

	mu     sync.Mutex
	nextID int64
	open   map[int64]*fileMeta
	// frames pools free frames by size. It holds each frame's first
	// byte: a sync.Pool boxes a []byte on Put, not a pointer.
	frames map[int]*sync.Pool

	// Counters for experiments; guarded by mu (see Stats).
	ReadCalls int64
	BytesRead int64

	inflight storage.InflightGauge
}

// New creates (or reuses) a directory-backed store. Existing array
// files in dir remain addressable if their IDs are known.
func New(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, open: map[int64]*fileMeta{}, frames: map[int]*sync.Pool{}}
	// Continue ID numbering after any existing files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		var id int64
		if _, err := fmt.Sscanf(e.Name(), "a%d.ssdm", &id); err == nil && id > s.nextID {
			s.nextID = id
		}
	}
	return s, nil
}

// Name implements storage.Backend.
func (s *Store) Name() string { return "file" }

func (s *Store) path(id int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("a%d.ssdm", id))
}

// writers holds Store's 64 KiB buffered writers, each reset to one file
// at a time.
var writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64*1024) }}

// Store implements storage.Backend: it writes the header, then the
// chunks, through a pooled 64 KiB buffered writer (a write(2) per chunk
// would cost several times the calls at small chunk sizes). A file
// Store fails to finish is removed.
func (s *Store) Store(a *array.Array, chunkElems int) (int64, error) {
	if chunkElems <= 0 {
		chunkElems = 64 * 1024 / array.ElemSize
	}
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()

	head := make([]byte, headerSize(len(a.Shape)))
	binary.LittleEndian.PutUint32(head[0:], magic)
	head[4] = byte(a.Etype())
	binary.LittleEndian.PutUint16(head[6:], uint16(len(a.Shape)))
	binary.LittleEndian.PutUint32(head[8:], uint32(chunkElems))
	for d, ext := range a.Shape {
		binary.LittleEndian.PutUint64(head[12+8*d:], uint64(ext))
	}
	f, err := os.Create(s.path(id))
	if err != nil {
		return 0, err
	}
	w := writers.Get().(*bufio.Writer)
	w.Reset(f)
	w.Write(head) // a failed write fails every later one, and Flush
	err = array.EncodeChunks(a, chunkElems, func(_ int, payload []byte) error {
		_, err := w.Write(payload)
		return err
	})
	err = errors.Join(err, w.Flush(), f.Close())
	w.Reset(nil) // hold no file while pooled
	writers.Put(w)
	if err != nil {
		_ = os.Remove(f.Name()) // best effort: err is what the caller needs
		return 0, err
	}
	return id, nil
}

// fileMeta is an open array file and its header, read when the array
// is first opened and kept: arrays are write-once.
type fileMeta struct {
	f          *os.File
	frames     *sync.Pool
	etype      array.ElemType
	shape      []int
	chunkElems int
	dataOff    int64
	nelems     int
}

// runBufs holds the buffers runs are read into (none over 4 MiB kept).
var runBufs = sync.Pool{New: func() any { return new([]byte) }}

func (s *Store) meta(id int64) (*fileMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.open[id]; ok {
		return m, nil
	}
	f, err := os.Open(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("filestore: array %d: %w", id, err)
	}
	m, err := readMeta(f, id)
	if err != nil {
		f.Close()
		return nil, err
	}
	size := m.chunkElems * array.ElemSize
	if s.frames[size] == nil {
		s.frames[size] = &sync.Pool{New: func() any { return unsafe.SliceData(make([]byte, size)) }}
	}
	m.f, m.frames = f, s.frames[size]
	s.open[id] = m
	return m, nil
}

func readMeta(f *os.File, id int64) (*fileMeta, error) {
	head := make([]byte, 12)
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("filestore: array %d: short header: %w", id, err)
	}
	if binary.LittleEndian.Uint32(head[0:]) != magic {
		return nil, fmt.Errorf("filestore: array %d: bad magic", id)
	}
	etype := array.ElemType(head[4])
	ndims := int(binary.LittleEndian.Uint16(head[6:]))
	chunkElems := int(binary.LittleEndian.Uint32(head[8:]))
	if ndims == 0 || chunkElems <= 0 {
		return nil, fmt.Errorf("filestore: array %d: corrupt header", id)
	}
	shapeBuf := make([]byte, 8*ndims)
	if _, err := f.ReadAt(shapeBuf, 12); err != nil {
		return nil, fmt.Errorf("filestore: array %d: short shape: %w", id, err)
	}
	shape := make([]int, ndims)
	n := 1
	for d := range shape {
		shape[d] = int(binary.LittleEndian.Uint64(shapeBuf[8*d:]))
		n *= shape[d]
	}
	return &fileMeta{
		etype:      etype,
		shape:      shape,
		chunkElems: chunkElems,
		dataOff:    headerSize(ndims),
		nelems:     n,
	}, nil
}

// Open implements storage.Backend.
func (s *Store) Open(id int64) (*array.Array, error) {
	m, err := s.meta(id)
	if err != nil {
		return nil, err
	}
	return array.NewProxied(array.NewProxy(s, id, m.chunkElems), m.etype, m.shape...)
}

// Delete implements storage.Backend.
func (s *Store) Delete(id int64) error {
	s.mu.Lock()
	if m, ok := s.open[id]; ok {
		m.f.Close()
		delete(s.open, id)
	}
	s.mu.Unlock()
	return os.Remove(s.path(id))
}

// Stats returns a consistent snapshot of the experiment counters; use
// it instead of the fields when readers may still be running.
func (s *Store) Stats() (readCalls, bytesRead int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ReadCalls, s.BytesRead
}

// ReadCallCount returns the read-call counter under the lock — the
// uniform accessor metric exporters probe for across back-ends.
func (s *Store) ReadCallCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ReadCalls
}

// Close releases all cached file handles.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for id, m := range s.open {
		if err := m.f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.open, id)
	}
	return first
}

// readUnit is one physical read request: a span of count consecutive
// chunks starting at chunk start (count 1 for strided access).
type readUnit struct {
	start, count int
}

// RecycleChunk implements array.ChunkRecycler: a frame this store
// emitted goes back to the pool of its size.
func (s *Store) RecycleChunk(data []byte) {
	s.mu.Lock()
	fp := s.frames[cap(data)]
	s.mu.Unlock()
	if fp != nil {
		fp.Put(unsafe.SliceData(data))
	}
}

// ReadChunksCtx implements array.ChunkSource with positioned reads. The
// runs are cut into read units — one pread per contiguous run, one per
// chunk when runs are strided or SimulatedLatency models per-request
// cost — and the units are issued concurrently by up to
// storage.Parallelism() workers sharing the array's file handle via
// ReadAt, which is safe and position-independent. Payloads are emitted
// serially on the calling goroutine; cancelling ctx stops the in-flight
// workers.
func (s *Store) ReadChunksCtx(ctx context.Context, arrayID int64, runs []spd.Run, emit func(chunkNo int, data []byte) error) error {
	m, err := s.meta(arrayID)
	if err != nil {
		return err
	}
	chunkBytes := m.chunkElems * array.ElemSize
	totalBytes := m.nelems * array.ElemSize

	var units []readUnit
	for _, r := range runs {
		switch {
		case r.Stride == 1 && r.Count > 1 && s.SimulatedLatency <= 0:
			units = append(units, readUnit{start: r.Start, count: r.Count})
		default:
			for _, c := range r.Expand(nil) {
				units = append(units, readUnit{start: c, count: 1})
			}
		}
	}

	return storage.RunUnits(ctx, len(units), &s.inflight, func(ctx context.Context, i int) ([]storage.Chunk, error) {
		u := units[i]
		off := u.start * chunkBytes
		if off >= totalBytes {
			return nil, fmt.Errorf("filestore: chunk %d out of range for array %d", u.start, arrayID)
		}
		n := min(u.count*chunkBytes, totalBytes-off)
		chunks := make([]storage.Chunk, 0, u.count)
		for lo := 0; lo < n; lo += chunkBytes {
			chunks = append(chunks, storage.Chunk{No: u.start + lo/chunkBytes, Data: unsafe.Slice(m.frames.Get().(*byte), chunkBytes)[:min(chunkBytes, n-lo)]})
		}
		// One pread per unit: a lone chunk straight into its frame.
		var err error
		if pos := m.dataOff + int64(off); len(chunks) == 1 {
			_, err = m.f.ReadAt(chunks[0].Data, pos)
		} else {
			err = readRun(m.f, pos, n, chunks)
		}
		if err != nil {
			return nil, err
		}
		simulateLatency(s.SimulatedLatency)
		s.mu.Lock()
		s.ReadCalls++
		s.BytesRead += int64(n)
		s.mu.Unlock()
		return chunks, nil
	}, emit)
}

// readRun reads a run, n bytes at pos, in one pread and copies it out.
func readRun(f *os.File, pos int64, n int, chunks []storage.Chunk) error {
	bp := runBufs.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	_, err := f.ReadAt((*bp)[:n], pos)
	off := 0
	for _, c := range chunks {
		off += copy(c.Data, (*bp)[off:n])
	}
	if cap(*bp) <= 4<<20 {
		runBufs.Put(bp)
	}
	return err
}

// simulateLatency charges the per-request latency of a remote store.
// Short waits use a Gosched yield loop rather than time.Sleep (whose
// granularity exceeds a millisecond) so that concurrent requests'
// latencies overlap even on a single-core host.
func simulateLatency(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= 2*time.Millisecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// InflightPeak returns the high-water mark of concurrently in-flight
// read units, verifying the worker pool's fan-out in experiments.
func (s *Store) InflightPeak() int64 { return s.inflight.Peak() }

// AggregateWhole implements array.ChunkSource. Plain files offer no
// computation capability, so the proxy falls back to chunk fetches —
// matching the capability-based delegation of §6.1.
func (s *Store) AggregateWhole(int64) (*array.AggState, bool, error) {
	return nil, false, nil
}
