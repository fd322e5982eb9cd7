// Package relbackend is the RDBMS-based ASEI back-end of SSDM
// (dissertation §6.2): array metadata and chunk payloads live in
// relational tables, and every interaction is an SQL statement against
// the (embedded, but SQL-text-addressed) relational store.
//
// The storage schema (§6.2.1) is:
//
//	arrays (aid INT PRIMARY KEY, etype INT, ndims INT, shape TEXT, chunk_elems INT)
//	chunks (aid INT, cno INT, data BLOB, PRIMARY KEY (aid, cno))
//
// The three strategies for formulating SQL during array-proxy
// resolution (§6.2.3) are:
//
//	StrategySingle   — one SELECT per chunk; the naive worst case.
//	StrategyBuffered — chunk numbers buffered and fetched with IN
//	                   lists of at most BufferSize entries (§6.2.4,
//	                   "resolving bags of array proxies").
//	StrategySPD      — the sequence-pattern-detector runs become
//	                   BETWEEN range queries, with a MOD stride filter
//	                   for non-contiguous progressions (§6.2.5).
package relbackend

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"scisparql/internal/array"
	"scisparql/internal/relstore"
	"scisparql/internal/spd"
	"scisparql/internal/storage"
)

// Strategy selects how chunk retrieval SQL is formulated.
type Strategy uint8

const (
	StrategySingle Strategy = iota
	StrategyBuffered
	StrategySPD
)

func (s Strategy) String() string {
	switch s {
	case StrategySingle:
		return "SQL-SINGLE"
	case StrategyBuffered:
		return "SQL-BUFFER"
	case StrategySPD:
		return "SQL-SPD"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Backend stores arrays in a relational database.
type Backend struct {
	DB       *relstore.Database
	Strategy Strategy

	// BufferSize bounds the number of chunk numbers per IN list for
	// StrategyBuffered (Experiment 2 sweeps it). Zero means 256.
	BufferSize int

	// Aggregable enables AAPR delegation via the ELEM* SQL aggregate
	// UDFs; disable to model a back-end without installed UDFs.
	Aggregable bool

	mu     sync.Mutex
	nextID int64
	metas  map[int64]*meta

	readCalls atomic.Int64
	inflight  storage.InflightGauge
}

type meta struct {
	etype      array.ElemType
	shape      []int
	chunkElems int
}

// New creates the backend and its storage schema inside db.
func New(db *relstore.Database) (*Backend, error) {
	b := &Backend{DB: db, Strategy: StrategySPD, BufferSize: 256, Aggregable: true, metas: map[int64]*meta{}}
	stmts := []string{
		`CREATE TABLE arrays (aid INT, etype INT, ndims INT, shape TEXT, chunk_elems INT, PRIMARY KEY (aid))`,
		`CREATE TABLE chunks (aid INT, cno INT, data BLOB, PRIMARY KEY (aid, cno))`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Name implements storage.Backend.
func (b *Backend) Name() string { return "sql/" + b.Strategy.String() }

// Store implements storage.Backend: one INSERT per chunk, then the
// metadata row (§6.2.2, data loading).
func (b *Backend) Store(a *array.Array, chunkElems int) (int64, error) {
	if chunkElems <= 0 {
		chunkElems = storage.ChunkElemsFor(storage.DefaultChunkBytes)
	}
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.mu.Unlock()

	// A blob keeps its slice, so each chunk is copied out of the
	// encoder's buffer.
	err := array.EncodeChunks(a, chunkElems, func(cno int, payload []byte) error {
		_, err := b.DB.Exec(`INSERT INTO chunks VALUES (?, ?, ?)`,
			relstore.I64(id), relstore.I64(int64(cno)), relstore.Blob(bytes.Clone(payload)))
		return err
	})
	if err != nil {
		return 0, err
	}
	_, err = b.DB.Exec(`INSERT INTO arrays VALUES (?, ?, ?, ?, ?)`,
		relstore.I64(id), relstore.I64(int64(a.Etype())), relstore.I64(int64(len(a.Shape))),
		relstore.Text(shapeToText(a.Shape)), relstore.I64(int64(chunkElems)))
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.metas[id] = &meta{etype: a.Etype(), shape: append([]int(nil), a.Shape...), chunkElems: chunkElems}
	b.mu.Unlock()
	return id, nil
}

func shapeToText(shape []int) string {
	parts := make([]string, len(shape))
	for i, s := range shape {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, "x")
}

func textToShape(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("relbackend: corrupt shape %q", s)
		}
		out[i] = v
	}
	return out, nil
}

func (b *Backend) meta(id int64) (*meta, error) {
	b.mu.Lock()
	if m, ok := b.metas[id]; ok {
		b.mu.Unlock()
		return m, nil
	}
	b.mu.Unlock()
	res, err := b.DB.Exec(`SELECT etype, shape, chunk_elems FROM arrays WHERE aid = ?`, relstore.I64(id))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("relbackend: no array %d", id)
	}
	row := res.Rows[0]
	shape, err := textToShape(row[1].Str())
	if err != nil {
		return nil, err
	}
	m := &meta{etype: array.ElemType(row[0].Int()), shape: shape, chunkElems: int(row[2].Int())}
	b.mu.Lock()
	b.metas[id] = m
	b.mu.Unlock()
	return m, nil
}

// Open implements storage.Backend.
func (b *Backend) Open(id int64) (*array.Array, error) {
	m, err := b.meta(id)
	if err != nil {
		return nil, err
	}
	return array.NewProxied(array.NewProxy(b, id, m.chunkElems), m.etype, m.shape...)
}

// Delete implements storage.Backend.
func (b *Backend) Delete(id int64) error {
	if _, err := b.DB.Exec(`DELETE FROM chunks WHERE aid = ?`, relstore.I64(id)); err != nil {
		return err
	}
	res, err := b.DB.Exec(`DELETE FROM arrays WHERE aid = ?`, relstore.I64(id))
	if err != nil {
		return err
	}
	if res.RowsAffected == 0 {
		return fmt.Errorf("relbackend: no array %d", id)
	}
	b.mu.Lock()
	delete(b.metas, id)
	b.mu.Unlock()
	return nil
}

// unitStmt is the SQL of one retrieval unit under the strategy: a
// per-chunk point SELECT (SINGLE and SPD singletons), an IN list
// (BUFFER), or a BETWEEN range with an optional MOD stride filter
// (SPD).
type unitStmt struct {
	sql    string
	params []relstore.Value
}

// ReadChunksCtx implements array.ChunkSource by formulating SQL
// according to the configured strategy. Retrieval units —
// one statement under the strategy's formulation rules — execute
// concurrently on up to storage.Parallelism() workers, so independent
// statement round trips overlap and row decoding of one result set
// proceeds while other statements are still on the simulated wire.
// Cancelling ctx stops issuing further statements within one unit.
func (b *Backend) ReadChunksCtx(ctx context.Context, arrayID int64, runs []spd.Run, emit func(chunkNo int, data []byte) error) error {
	b.readCalls.Add(1)
	aid := relstore.I64(arrayID)
	var units []unitStmt
	switch b.Strategy {
	case StrategySingle:
		for _, c := range spd.Expand(runs) {
			units = append(units, unitStmt{
				sql:    `SELECT cno, data FROM chunks WHERE aid = ? AND cno = ?`,
				params: []relstore.Value{aid, relstore.I64(int64(c))},
			})
		}
	case StrategyBuffered:
		bufSize := b.BufferSize
		if bufSize <= 0 {
			bufSize = 256
		}
		all := spd.Expand(runs)
		for lo := 0; lo < len(all); lo += bufSize {
			hi := lo + bufSize
			if hi > len(all) {
				hi = len(all)
			}
			batch := all[lo:hi]
			placeholders := strings.Repeat("?, ", len(batch)-1) + "?"
			params := make([]relstore.Value, 0, len(batch)+1)
			params = append(params, aid)
			for _, c := range batch {
				params = append(params, relstore.I64(int64(c)))
			}
			units = append(units, unitStmt{
				sql:    `SELECT cno, data FROM chunks WHERE aid = ? AND cno IN (` + placeholders + `)`,
				params: params,
			})
		}
	case StrategySPD:
		for _, r := range runs {
			switch {
			case r.Count == 1:
				units = append(units, unitStmt{
					sql:    `SELECT cno, data FROM chunks WHERE aid = ? AND cno = ?`,
					params: []relstore.Value{aid, relstore.I64(int64(r.Start))},
				})
			case r.Stride == 1:
				units = append(units, unitStmt{
					sql:    `SELECT cno, data FROM chunks WHERE aid = ? AND cno BETWEEN ? AND ?`,
					params: []relstore.Value{aid, relstore.I64(int64(r.Start)), relstore.I64(int64(r.Last()))},
				})
			default:
				units = append(units, unitStmt{
					sql: `SELECT cno, data FROM chunks WHERE aid = ? AND cno BETWEEN ? AND ? AND MOD(cno - ?, ?) = 0`,
					params: []relstore.Value{aid, relstore.I64(int64(r.Start)), relstore.I64(int64(r.Last())),
						relstore.I64(int64(r.Start)), relstore.I64(int64(r.Stride))},
				})
			}
		}
	default:
		return fmt.Errorf("relbackend: unknown strategy %v", b.Strategy)
	}

	return storage.RunUnits(ctx, len(units), &b.inflight, func(_ context.Context, i int) ([]storage.Chunk, error) {
		res, err := b.DB.Exec(units[i].sql, units[i].params...)
		if err != nil {
			return nil, err
		}
		chunks := make([]storage.Chunk, 0, len(res.Rows))
		for _, row := range res.Rows {
			chunks = append(chunks, storage.Chunk{No: int(row[0].Int()), Data: row[1].Bytes()})
		}
		return chunks, nil
	}, emit)
}

// ReadCalls returns how many chunk-retrieval calls the back-end served
// (each may span many SQL statements; see the database's Statements
// counter for those).
func (b *Backend) ReadCalls() int64 { return b.readCalls.Load() }

// ReadCallCount is ReadCalls under the uniform accessor name metric
// exporters probe for across back-ends.
func (b *Backend) ReadCallCount() int64 { return b.ReadCalls() }

// InflightPeak returns the high-water mark of concurrently in-flight
// retrieval statements, verifying the worker pool's fan-out.
func (b *Backend) InflightPeak() int64 { return b.inflight.Peak() }

// AggregateWhole implements array.ChunkSource: when the ELEM* UDFs are
// available, whole-array aggregates are computed inside the database
// and only the scalar results cross the boundary (AAPR, §6.1).
func (b *Backend) AggregateWhole(arrayID int64) (*array.AggState, bool, error) {
	if !b.Aggregable {
		return nil, false, nil
	}
	m, err := b.meta(arrayID)
	if err != nil {
		return nil, false, err
	}
	suffix := "F"
	if m.etype == array.Int {
		suffix = "I"
	}
	sql := fmt.Sprintf(
		`SELECT ELEMCNT(data), ELEMSUM%[1]s(data), ELEMMIN%[1]s(data), ELEMMAX%[1]s(data) FROM chunks WHERE aid = ?`,
		suffix)
	res, err := b.DB.Exec(sql, relstore.I64(arrayID))
	if err != nil {
		return nil, false, err
	}
	row := res.Rows[0]
	st := array.NewAggState()
	st.Count = int(row[0].Int())
	if st.Count == 0 {
		return st, true, nil
	}
	st.SumF = row[1].Float()
	st.SumI = row[1].Int()
	st.AllInt = m.etype == array.Int
	st.Min = row[2].Float()
	st.MinI = row[2].Int()
	st.Max = row[3].Float()
	st.MaxI = row[3].Int()
	return st, true, nil
}
