// Package storage defines the Array Storage Extensibility Interface
// (ASEI, dissertation §6.1): the contract between SSDM's array proxies
// and pluggable array storage back-ends, together with the shared
// chunking scheme and an in-memory reference back-end.
//
// Arrays are split into one-dimensional chunks over the base array's
// row-major element order (§2.5); a back-end stores chunk payloads and
// serves them back by chunk number. The array-proxy-resolve (APR)
// machinery in package array asks for chunks in compact
// arithmetic-progression runs produced by the sequence pattern
// detector, and back-ends that can evaluate whole-array aggregates
// server-side advertise that through AggregateWhole (AAPR).
package storage

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"scisparql/internal/array"
	"scisparql/internal/spd"
)

// DefaultChunkBytes is the default chunk payload size. The chunk size
// is the single storage tuning parameter (§2.5); Experiment 3 sweeps
// it.
const DefaultChunkBytes = 64 * 1024

// ChunkElemsFor converts a chunk size in bytes to whole elements.
func ChunkElemsFor(chunkBytes int) int {
	n := chunkBytes / array.ElemSize
	if n < 1 {
		n = 1
	}
	return n
}

// Backend is the ASEI: everything SSDM needs from an array storage
// system. It extends array.ChunkSource (lazy chunk reads and optional
// server-side aggregation) with array lifecycle operations.
type Backend interface {
	array.ChunkSource

	// Name identifies the back-end in diagnostics and benchmarks.
	Name() string

	// Store writes the view's elements, row-major, and returns its
	// back-end array ID. chunkElems is the chunk size in elements (0
	// selects the back-end default).
	Store(a *array.Array, chunkElems int) (int64, error)

	// Open returns a proxied array view over a stored array; no element
	// data is transferred until the view is dereferenced.
	Open(id int64) (*array.Array, error)

	// Delete removes a stored array.
	Delete(id int64) error
}

// NumChunks returns the chunk count for an element count.
func NumChunks(nelems, chunkElems int) int {
	return (nelems + chunkElems - 1) / chunkElems
}

// storedArray is the in-memory back-end's representation.
type storedArray struct {
	etype      array.ElemType
	shape      []int
	chunkElems int
	chunks     [][]byte
}

// Memory is the trivial ASEI implementation: chunks held in process
// memory. It is the reference back-end for tests and the baseline
// "resident" configuration of the mini-benchmark, and it supports
// server-side aggregation.
//
// Memory is safe for concurrent use: stored chunk payloads are
// immutable once written, so ReadChunks can serve many readers in
// parallel. Read the experiment counters through Stats when other
// goroutines may still be issuing reads.
type Memory struct {
	mu     sync.Mutex
	arrays map[int64]*storedArray
	nextID int64

	// Counters for experiments; guarded by mu (see Stats).
	ReadCalls    int64
	ChunksServed int64
	BytesServed  int64

	inflight InflightGauge
}

// NewMemory creates an empty in-memory back-end.
func NewMemory() *Memory {
	return &Memory{arrays: make(map[int64]*storedArray)}
}

// Name implements Backend.
func (m *Memory) Name() string { return "memory" }

// Store implements Backend.
func (m *Memory) Store(a *array.Array, chunkElems int) (int64, error) {
	if chunkElems <= 0 {
		chunkElems = ChunkElemsFor(DefaultChunkBytes)
	}
	chunks := make([][]byte, 0, NumChunks(a.Count(), chunkElems))
	err := array.EncodeChunks(a, chunkElems, func(_ int, payload []byte) error {
		chunks = append(chunks, bytes.Clone(payload))
		return nil
	})
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	id := m.nextID
	m.arrays[id] = &storedArray{
		etype:      a.Etype(),
		shape:      append([]int(nil), a.Shape...),
		chunkElems: chunkElems,
		chunks:     chunks,
	}
	return id, nil
}

func (m *Memory) get(id int64) (*storedArray, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sa, ok := m.arrays[id]
	if !ok {
		return nil, fmt.Errorf("storage: memory back-end has no array %d", id)
	}
	return sa, nil
}

// Open implements Backend.
func (m *Memory) Open(id int64) (*array.Array, error) {
	sa, err := m.get(id)
	if err != nil {
		return nil, err
	}
	return array.NewProxied(array.NewProxy(m, id, sa.chunkElems), sa.etype, sa.shape...)
}

// Delete implements Backend.
func (m *Memory) Delete(id int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.arrays[id]; !ok {
		return fmt.Errorf("storage: memory back-end has no array %d", id)
	}
	delete(m.arrays, id)
	return nil
}

// ReadChunksCtx implements array.ChunkSource. Chunks already live in
// process memory, so there is no latency to hide: payloads are emitted
// sequentially with a cancellation check per chunk. The inflight gauge
// tracks concurrent ReadChunksCtx calls (parallel queries), not worker
// fan-out.
func (m *Memory) ReadChunksCtx(ctx context.Context, arrayID int64, runs []spd.Run, emit func(chunkNo int, data []byte) error) error {
	m.inflight.Enter()
	defer m.inflight.Exit()
	sa, err := m.get(arrayID)
	if err != nil {
		return err
	}
	var served, bytes int64
	for _, c := range spd.Expand(runs) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c < 0 || c >= len(sa.chunks) {
			return fmt.Errorf("storage: chunk %d out of range for array %d", c, arrayID)
		}
		served++
		bytes += int64(len(sa.chunks[c]))
		if err := emit(c, sa.chunks[c]); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.ReadCalls++
	m.ChunksServed += served
	m.BytesServed += bytes
	m.mu.Unlock()
	return nil
}

// Stats returns a consistent snapshot of the experiment counters; use
// it instead of the fields when readers may still be running.
func (m *Memory) Stats() (readCalls, chunksServed, bytesServed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ReadCalls, m.ChunksServed, m.BytesServed
}

// InflightPeak returns the high-water mark of concurrent read calls.
func (m *Memory) InflightPeak() int64 { return m.inflight.Peak() }

// ReadCallCount returns the read-call counter under the lock — the
// uniform accessor metric exporters probe for across back-ends.
func (m *Memory) ReadCallCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ReadCalls
}

// AggregateWhole implements array.ChunkSource: the memory back-end is
// aggregation-capable.
func (m *Memory) AggregateWhole(arrayID int64) (*array.AggState, bool, error) {
	sa, err := m.get(arrayID)
	if err != nil {
		return nil, false, err
	}
	st := array.NewAggState()
	for _, chunk := range sa.chunks {
		for off := 0; off+array.ElemSize <= len(chunk); off += array.ElemSize {
			st.Add(array.DecodeElem(chunk[off:off+array.ElemSize], sa.etype))
		}
	}
	return st, true, nil
}
