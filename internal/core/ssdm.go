// Package core implements the Scientific SPARQL Database Manager
// (SSDM) — the paper's primary contribution assembled: an
// RDF-with-Arrays dataset, the SciSPARQL query processor, the data
// loaders, and attachments to array storage back-ends through the
// Array Storage Extensibility Interface (dissertation chapter 5).
//
// SSDM can run stand-alone (this package), as a server
// (internal/server) or be driven from numeric workflows through the
// client API (internal/ssdmclient), mirroring the deployment modes of
// §5.1.
package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/engine"
	"scisparql/internal/loader"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
	"scisparql/internal/storage"
	"scisparql/internal/turtle"
	"scisparql/internal/wal"
)

// Options configure an SSDM instance.
type Options struct {
	// ConsolidateCollections enables rewriting nested numeric RDF
	// collections into arrays at load time (§5.3.2). Default on.
	ConsolidateCollections bool
	// ConsolidateDataCubes enables RDF Data Cube consolidation at load
	// time (§5.3.3). Default on.
	ConsolidateDataCubes bool
	// ChunkBytes is the chunk size used when arrays are stored to a
	// back-end. Defaults to storage.DefaultChunkBytes.
	ChunkBytes int

	// QueryTimeout is the default wall-clock deadline applied to every
	// query and update (0 = none). Per-call limits may tighten it
	// further; see SSDM.QueryLimits.
	QueryTimeout time.Duration
	// MaxResultRows caps the rows a single query may return
	// (0 = unlimited); exceeding it fails with ErrResourceLimit.
	MaxResultRows int
	// MaxBindings caps the intermediate bindings one query may produce
	// while enumerating solutions (0 = unlimited) — the budget against
	// runaway joins and property-path expansions.
	MaxBindings int64

	// ChunkCacheBytes sets the byte budget of the process-wide chunk
	// cache array proxies fetch into: 0 leaves the current budget
	// (array.DefaultChunkCacheBytes unless already reconfigured),
	// negative means unlimited. The cache is shared by every SSDM
	// instance in the process, so the last instance opened wins.
	ChunkCacheBytes int64

	// WALDir is the directory of the write-ahead log; the log is armed
	// by calling EnableWAL after Open (empty = no durability).
	WALDir string
	// WALSync selects the log sync policy: "always" (default; group
	// commit, full durability), "interval" (timer-driven fsync) or
	// "none".
	WALSync string
	// WALGroupWait is how long a group-commit leader dwells before
	// fsyncing so concurrent updates can join the batch — a bounded
	// latency bump traded for fewer fsyncs (0 = sync immediately).
	WALGroupWait time.Duration
	// WALCheckpointBytes triggers an automatic checkpoint once the log
	// grows this much past the last one (0 = DefaultWALCheckpointBytes,
	// negative = only explicit Checkpoint calls).
	WALCheckpointBytes int64
}

// Typed failure classes re-exported from the engine so callers holding
// only a core.SSDM can classify errors with errors.Is.
var (
	ErrQueryTimeout   = engine.ErrQueryTimeout
	ErrQueryCancelled = engine.ErrQueryCancelled
	ErrResourceLimit  = engine.ErrResourceLimit
	ErrInternal       = engine.ErrInternal
)

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{
		ConsolidateCollections: true,
		ConsolidateDataCubes:   true,
		ChunkBytes:             storage.DefaultChunkBytes,
	}
}

// SSDM is a Scientific SPARQL Database Manager instance.
//
// SSDM is safe for concurrent use, with snapshot-isolated reads:
// queries (Query, Explain, prepared Exec, WriteTurtle, and the query
// statements inside Execute) take no lock at all — each execution pins
// an immutable version of every graph it touches on first read and
// runs against those versions to completion, so it observes a
// statement-atomic dataset (never a half-applied update) and never
// blocks behind a writer. Mutating operations (Update, LoadTurtle*,
// LoadSnapshot, StoreArray, WriteTriples, Externalize, and the
// update statements inside Execute) serialize on the operation write
// lock and publish their effect as one new version. When a write-ahead
// log is enabled (EnableWAL), a mutation is acknowledged only after
// its log record is durable per the configured sync policy.
type SSDM struct {
	// op serializes mutating operations; its read side is only used by
	// SaveSnapshot/Checkpoint to exclude writers while capturing a
	// cross-graph-consistent image. Queries do not touch it.
	op sync.RWMutex

	mu      sync.Mutex // guards backend and Prefixes
	Dataset *rdf.Dataset
	Engine  *engine.Engine
	Opts    Options

	backend storage.Backend // attached array store (nil = resident only)

	// Prefixes collected from loaded documents, used when serializing.
	Prefixes map[string]string

	// qcache is the compiled-query LRU cache behind Query/Explain (see
	// querycache.go for the key and invalidation rules).
	qcache *queryCache

	// wal is the write-ahead log; nil until EnableWAL arms it. The
	// remaining fields are guarded by op's write side: the DEFINE scripts
	// an image replays, the log position of the last checkpoint, and
	// what the last recovery restored.
	wal         *wal.Log
	defines     []recDefine
	lastCkptLSN uint64
	recovery    RecoveryInfo

	// dist, when non-nil, redirects queries, updates and loads to a
	// shard coordinator (see Distributor). Set once at startup.
	dist Distributor
}

// Open creates an SSDM instance with default options.
func Open() *SSDM {
	return OpenWith(DefaultOptions())
}

// OpenWith creates an SSDM instance with explicit options.
func OpenWith(opts Options) *SSDM {
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = storage.DefaultChunkBytes
	}
	if opts.ChunkCacheBytes != 0 {
		array.SharedChunkCache().SetBudget(opts.ChunkCacheBytes)
	}
	ds := rdf.NewDataset()
	return &SSDM{
		Dataset:  ds,
		Engine:   engine.New(ds),
		Opts:     opts,
		Prefixes: map[string]string{},
		qcache:   newQueryCache(0),
	}
}

// DictStats reports the term-dictionary footprint across the
// dataset's graphs (term count, approximate bytes, generation).
func (s *SSDM) DictStats() rdf.DictStats {
	return s.Dataset.DictStats()
}

// VecStats reports cumulative vectorized-execution activity.
func (s *SSDM) VecStats() engine.VecStats {
	return s.Engine.VecStats()
}

// AttachBackend connects an array storage back-end; arrays stored via
// StoreArray and Externalize go there, and file links resolve against
// it.
func (s *SSDM) AttachBackend(b storage.Backend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backend = b
}

// Backend returns the attached back-end (nil when resident-only).
func (s *SSDM) Backend() storage.Backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backend
}

// LoadTurtle loads a Turtle document into a graph ("" = default) and
// runs the configured consolidations.
func (s *SSDM) LoadTurtle(src string, graph rdf.IRI) error {
	if s.dist != nil {
		return s.dist.LoadTurtle(src, graph)
	}
	s.op.Lock()
	defer s.op.Unlock()
	return s.loadTurtleLocked(src, graph)
}

func (s *SSDM) loadTurtleLocked(src string, graph rdf.IRI) error {
	g := s.targetGraph(graph)
	// Parse and consolidate into a stage over the target's dictionary,
	// then take its triples by ID into one transaction, so the document
	// is interned once and is one atomically published version (and,
	// with a WAL, one batch) — readers never see, and the log never
	// holds, a half-loaded or unconsolidated document, and a load that
	// fails leaves the graph as it was. The stage's blank counter starts
	// at the target's so document blanks cannot collide with existing
	// ones; consolidation sees the incoming document, not the merged
	// graph.
	stage := g.Stage()
	if err := sparql.ParseTurtle(src, stage); err != nil {
		return err
	}
	if err := s.postLoad(stage); err != nil {
		return err
	}
	tx := g.Begin()
	if s.walEnabled() {
		tx.Record(true)
	}
	tx.AddGraph(stage)
	g.EnsureBlankNo(stage.BlankNo())
	lsn, logged, err := s.commitTx(graph, tx)
	if err != nil || !logged {
		return err
	}
	if err := s.walFinish(lsn); err != nil {
		return err
	}
	s.maybeCheckpointLocked()
	return nil
}

// LoadTurtleFile loads a Turtle file from disk.
func (s *SSDM) LoadTurtleFile(path string, graph rdf.IRI) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return s.LoadTurtle(string(b), graph)
}

func (s *SSDM) targetGraph(graph rdf.IRI) *rdf.Graph {
	if graph == "" {
		return s.Dataset.Default
	}
	return s.Dataset.Named(graph, true)
}

func (s *SSDM) postLoad(g *rdf.Graph) error {
	if s.Opts.ConsolidateCollections {
		if _, err := loader.ConsolidateCollections(g); err != nil {
			return err
		}
	}
	if s.Opts.ConsolidateDataCubes {
		if _, err := loader.ConsolidateDataCube(g); err != nil {
			return err
		}
	}
	if b := s.Backend(); b != nil {
		if _, err := loader.ResolveFileLinks(g, b); err != nil {
			return err
		}
	}
	return nil
}

// Query parses and executes a single SciSPARQL query. Queries take no
// lock: the execution pins an immutable snapshot of each graph it
// reads, so any number run in parallel and none waits for a concurrent
// update. Hot query texts are served from the compiled-query cache,
// skipping lex/parse/compile entirely on a hit. The instance's
// configured guards (Options.QueryTimeout/MaxResultRows/MaxBindings)
// apply.
func (s *SSDM) Query(src string) (*engine.Results, error) {
	return s.QueryContext(context.Background(), src)
}

// QueryContext is Query under a context: cancelling it (or its
// deadline expiring) aborts the execution with ErrQueryCancelled /
// ErrQueryTimeout within one evaluation batch.
func (s *SSDM) QueryContext(ctx context.Context, src string) (*engine.Results, error) {
	return s.QueryLimits(ctx, src, engine.Limits{})
}

// QueryLimits is QueryContext with explicit per-call limits. Zero
// fields fall back to the instance Options, and non-zero fields are
// clamped to the stricter of the call and the configured default — a
// caller can tighten the server-wide guards per request but never
// loosen them.
func (s *SSDM) QueryLimits(ctx context.Context, src string, lim engine.Limits) (*engine.Results, error) {
	q, err := s.parseQueryCached(src)
	if err != nil {
		return nil, err
	}
	if s.dist != nil {
		return s.dist.Query(ctx, src, q, s.FillLimits(lim))
	}
	return s.Engine.QueryContext(ctx, q, s.FillLimits(lim))
}

// FillLimits resolves per-call limits against the instance defaults.
// A zero field takes the default; when both the call and the default
// set a bound, the stricter one wins — per-call limits can tighten the
// operator-configured guards, never loosen them.
func (s *SSDM) FillLimits(lim engine.Limits) engine.Limits {
	return lim.Tighten(engine.Limits{
		Timeout:       s.Opts.QueryTimeout,
		MaxResultRows: s.Opts.MaxResultRows,
		MaxBindings:   s.Opts.MaxBindings,
	})
}

// Explain renders the execution strategy for a query (join order with
// fan-out estimates, filter placement) without running it. It shares
// the compiled-query cache with Query.
func (s *SSDM) Explain(src string) (string, error) {
	q, err := s.parseQueryCached(src)
	if err != nil {
		return "", err
	}
	return s.Engine.Explain(q), nil
}

// QueryAnalyze is QueryLimits with an execution trace collected — the
// manager half of EXPLAIN ANALYZE. It reports whether the query text
// was served from the compiled-query cache and how long parsing took,
// then delegates to the engine's traced execution. The trace is
// non-nil whenever the text parsed, even if execution failed (the
// trace's Error field is set), so a timed-out query still reports
// where its time went.
func (s *SSDM) QueryAnalyze(ctx context.Context, src string, lim engine.Limits) (*engine.Results, *engine.Trace, error) {
	t0 := time.Now()
	q, hit, err := s.parseQueryCachedHit(src)
	parse := time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	var (
		res *engine.Results
		tr  *engine.Trace
	)
	if s.dist != nil {
		res, tr, err = s.dist.QueryTraced(ctx, src, q, s.FillLimits(lim))
	} else {
		res, tr, err = s.Engine.QueryTraced(ctx, q, s.FillLimits(lim))
	}
	if tr != nil {
		tr.PlanCached = hit
		if !hit {
			tr.ParseNanos = parse.Nanoseconds()
		}
	}
	return res, tr, err
}

// parseQueryCached resolves a query text through the compiled-query
// cache. Parse errors are not cached: a failing text re-parses on
// every submission (errors are rare and cheap, and keeping them out of
// the cache keeps the LRU full of useful entries).
func (s *SSDM) parseQueryCached(src string) (*sparql.Query, error) {
	q, _, err := s.parseQueryCachedHit(src)
	return q, err
}

// parseQueryCachedHit is parseQueryCached reporting whether the text
// came from the cache — the plan-cache signal EXPLAIN ANALYZE surfaces.
func (s *SSDM) parseQueryCachedHit(src string) (*sparql.Query, bool, error) {
	if q, ok := s.qcache.get(src); ok {
		return q, true, nil
	}
	q, err := sparql.ParseQuery(src)
	if err != nil {
		return nil, false, err
	}
	s.qcache.put(src, q)
	return q, false, nil
}

// QueryCacheStats reports the compiled-query cache counters (hits,
// misses, resident entries, invalidation epoch).
func (s *SSDM) QueryCacheStats() CacheStats {
	return s.qcache.stats()
}

// ChunkCacheStats reports the counters of the process-wide chunk cache
// array proxies fetch into (hits, misses, coalesced fetches,
// evictions, resident bytes and high-water mark).
func (s *SSDM) ChunkCacheStats() array.ChunkCacheStats {
	return array.SharedChunkCache().Stats()
}

// Prepared is a parsed query that can be executed repeatedly with
// different parameter bindings — the programmatic counterpart of
// SciSPARQL's parameterized views (§4.2).
type Prepared struct {
	ssdm *SSDM
	q    *sparql.Query
}

// Prepare parses a SELECT query once for repeated execution.
func (s *SSDM) Prepare(src string) (*Prepared, error) {
	q, err := sparql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return &Prepared{ssdm: s, q: q}, nil
}

// Exec runs the prepared query with the given variables pre-bound
// (nil for none). Like Query, it holds the operation read lock.
func (p *Prepared) Exec(params map[string]rdf.Term) (*engine.Results, error) {
	return p.ExecContext(context.Background(), params)
}

// ExecContext is Exec under a context; the instance's configured
// guards apply as in Query.
func (p *Prepared) ExecContext(ctx context.Context, params map[string]rdf.Term) (*engine.Results, error) {
	initial := engine.Binding{}
	for k, v := range params {
		initial[k] = v
	}
	return p.ssdm.Engine.QueryWithContext(ctx, p.q, initial, p.ssdm.FillLimits(engine.Limits{}))
}

// Execute runs a sequence of SciSPARQL statements (queries and
// updates, ';'-separated) and returns the results of the queries.
// The lock is classified per statement: queries share the operation
// lock with other readers, while updates and loads take it
// exclusively, so a long script of SELECTs never blocks concurrent
// clients.
func (s *SSDM) Execute(src string) ([]*engine.Results, error) {
	return s.ExecuteContext(context.Background(), src)
}

// ExecuteContext is Execute under a context, checked between
// statements and inside each statement's evaluation; the instance's
// configured guards apply to every query in the script.
func (s *SSDM) ExecuteContext(ctx context.Context, src string) ([]*engine.Results, error) {
	return s.ExecuteLimits(ctx, src, engine.Limits{})
}

// ExecuteLimits is ExecuteContext with explicit per-call limits,
// resolved against the instance defaults as in QueryLimits. The
// resolved guards bound each statement in the script individually —
// queries and the WHERE evaluation of updates alike — so a script's
// DELETE/INSERT is subject to the same timeout and bindings budget as
// a standalone query.
func (s *SSDM) ExecuteLimits(ctx context.Context, src string, lim engine.Limits) ([]*engine.Results, error) {
	stmts, err := sparql.ParseAll(src)
	if err != nil {
		return nil, err
	}
	lim = s.FillLimits(lim)
	var out []*engine.Results
	for i, st := range stmts {
		if err := engine.ContextErr(ctx); err != nil {
			return out, err
		}
		if s.dist != nil {
			if q, ok := st.(*sparql.Query); ok {
				res, err := s.dist.Query(ctx, "", q, lim)
				if err != nil {
					return out, err
				}
				out = append(out, res)
			} else if _, err := s.dist.Update(ctx, st, src, i, lim); err != nil {
				return out, err
			}
			continue
		}
		switch v := st.(type) {
		case *sparql.Query:
			res, err := s.Engine.QueryContext(ctx, v, lim)
			if err != nil {
				return out, err
			}
			out = append(out, res)
		case *sparql.Load:
			s.op.Lock()
			err := s.execLoadLocked(v)
			s.op.Unlock()
			if err != nil {
				return out, err
			}
		default:
			if _, err := s.runUpdate(ctx, st, lim, src, i); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// redefinesFunctions reports whether a statement (re)defines callables
// — the statement class that invalidates the compiled-query cache,
// since cached parses may embed assumptions about names that just
// changed meaning.
func redefinesFunctions(st sparql.Statement) bool {
	switch st.(type) {
	case *sparql.DefineFunction, *sparql.DefineAggregate:
		return true
	default:
		return false
	}
}

// Update runs a single update statement and reports affected triples.
func (s *SSDM) Update(src string) (int, error) {
	return s.UpdateContext(context.Background(), src)
}

// UpdateContext is Update under a context. Cancellation is honored
// while matching the WHERE clause of DELETE/INSERT; the mutation phase
// applies atomically once solutions are materialized (never a
// half-applied statement). Options.QueryTimeout and
// Options.MaxBindings bound the statement.
func (s *SSDM) UpdateContext(ctx context.Context, src string) (int, error) {
	return s.UpdateLimits(ctx, src, engine.Limits{})
}

// UpdateLimits is UpdateContext with explicit per-call limits,
// resolved against the instance defaults as in QueryLimits: the
// timeout and bindings budget bound the statement's WHERE evaluation
// (MaxResultRows does not apply — updates return no rows).
func (s *SSDM) UpdateLimits(ctx context.Context, src string, lim engine.Limits) (int, error) {
	st, err := sparql.ParseStatement(src)
	if err != nil {
		return 0, err
	}
	lim = s.FillLimits(lim)
	if s.dist != nil {
		return s.dist.Update(ctx, st, src, 0, lim)
	}
	if ld, ok := st.(*sparql.Load); ok {
		s.op.Lock()
		defer s.op.Unlock()
		return 0, s.execLoadLocked(ld)
	}
	return s.runUpdate(ctx, st, lim, src, 0)
}

// UpdateStatement runs one already-parsed update statement from a
// script on the durable write path. script and index identify the
// statement's source (the whole script text and the statement's
// position in it) so function/aggregate definitions can be re-played
// from the log after a crash; pass the statement's own text and 0
// when it was parsed alone. Load statements route through the Turtle
// load path like UpdateLimits does.
func (s *SSDM) UpdateStatement(ctx context.Context, st sparql.Statement, script string, index int) (int, error) {
	if s.dist != nil {
		return s.dist.Update(ctx, st, script, index, s.FillLimits(engine.Limits{}))
	}
	if ld, ok := st.(*sparql.Load); ok {
		s.op.Lock()
		defer s.op.Unlock()
		return 0, s.execLoadLocked(ld)
	}
	return s.runUpdate(ctx, st, s.FillLimits(engine.Limits{}), script, index)
}

// runUpdate executes one update statement on the durable write path:
// under the operation write lock the statement is staged (its WHERE
// evaluated, its physical operations collected), its WAL record is
// appended, and the staged version is published; the lock is then
// released and the acknowledgement waits on log durability. Because
// the wait happens outside the lock, concurrent updates stack their
// records behind one another and the group-commit leader syncs them
// with a single fsync. A WAL append failure aborts the staged update
// — memory never runs ahead of the log — and returns ErrDurability.
func (s *SSDM) runUpdate(ctx context.Context, st sparql.Statement, lim engine.Limits, script string, index int) (int, error) {
	s.op.Lock()
	staged, err := s.Engine.UpdateStagedLimits(ctx, st, lim, s.walEnabled())
	if err != nil {
		s.op.Unlock()
		return 0, err
	}
	var lsn uint64
	_, clear := st.(*sparql.Clear)
	logged := s.walEnabled()
	switch {
	case !logged:
	case redefinesFunctions(st):
		lsn, err = s.walAppendDefine(script, index)
	case clear && staged.Count() > 0:
		lsn, err = s.walAppend(wal.RecClear, []byte(staged.Graph()))
	case len(staged.Ops()) > 0:
		lsn, err = s.walAppendBatch(staged.Graph(), staged.Ops())
	default:
		logged = false
	}
	if err != nil {
		staged.Abort()
		s.op.Unlock()
		return 0, err
	}
	staged.Commit()
	count := staged.Count()
	if redefinesFunctions(st) {
		s.defines = append(s.defines, recDefine{Script: script, Index: index})
		s.qcache.invalidate()
	}
	s.maybeCheckpointLocked()
	s.op.Unlock()
	if logged {
		if err := s.walFinish(lsn); err != nil {
			return count, err
		}
	}
	return count, nil
}

// execLoadLocked handles LOAD <source> [INTO GRAPH g]: sources are
// local Turtle files (an SSDM deployment decides its own file access
// policy, so this lives in the manager, not the engine). The caller
// holds the operation write lock.
func (s *SSDM) execLoadLocked(v *sparql.Load) error {
	src := strings.TrimPrefix(v.Source, "file://")
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return s.loadTurtleLocked(string(b), v.Graph)
}

// StoreArray writes an array to the attached back-end and returns its
// ID.
func (s *SSDM) StoreArray(a *array.Array) (int64, error) {
	s.op.Lock()
	defer s.op.Unlock()
	b := s.Backend()
	if b == nil {
		return 0, fmt.Errorf("ssdm: no storage back-end attached")
	}
	return b.Store(a, storage.ChunkElemsFor(s.Opts.ChunkBytes))
}

// WriteTriples adds ground triples — rows of subject, predicate and
// object — to the default graph (with del, removes them) as one
// transaction and reports how many changed; blank labels are kept as
// given and an added array goes to the attached back-end, if any. A row
// that is not three bound terms with an IRI predicate fails the call
// before anything applies. With a WAL it is one batch record, awaited
// outside the lock as updates are. A coordinator routes the rows.
func (s *SSDM) WriteTriples(ctx context.Context, rows [][]rdf.Term, del bool) (int, error) {
	if err := checkTriples(rows); err != nil {
		return 0, err
	}
	if s.dist != nil {
		return s.dist.WriteTriples(ctx, rows, del)
	}
	s.op.Lock()
	n, lsn, logged, err := s.writeLocked(ctx, rows, del)
	s.op.Unlock()
	if err != nil {
		return 0, err
	}
	if logged {
		err = s.walFinish(lsn)
	}
	return n, err
}

func checkTriples(rows [][]rdf.Term) error {
	for i, row := range rows {
		if len(row) != 3 || row[0] == nil || row[1] == nil || row[2] == nil || row[1].Kind() != rdf.KindIRI {
			return fmt.Errorf("ssdm: triple %d is not three bound terms with an IRI predicate", i)
		}
	}
	return nil
}

// writeLocked is WriteTriples' transaction, under the operation lock.
func (s *SSDM) writeLocked(ctx context.Context, rows [][]rdf.Term, del bool) (n int, lsn uint64, logged bool, err error) {
	if err = engine.ContextErr(ctx); err != nil {
		return 0, 0, false, err
	}
	b, g := s.Backend(), s.Dataset.Default
	tx := g.Begin()
	tx.Record(s.walEnabled())
	for _, row := range rows {
		if del {
			tx.Delete(row[0], row[1], row[2])
			continue
		}
		o := row[2]
		if at, ok := o.(rdf.Array); ok && b != nil {
			if at.A, err = s.storeOpen(b, at.A); err != nil {
				tx.Abort()
				return 0, 0, false, err
			}
			o = at
		}
		tx.Add(row[0], row[1], o)
	}
	n = tx.Changed()
	if lsn, logged, err = s.commitTx("", tx); err == nil {
		s.maybeCheckpointLocked()
	}
	return n, lsn, logged, err
}

// commitTx publishes tx (recording on a WAL instance) as one version,
// first logging its changes as one batch record; a failed append aborts
// it. The caller holds the operation lock and, when logged, acknowledges
// only after walFinish(lsn).
func (s *SSDM) commitTx(graph rdf.IRI, tx *rdf.Tx) (lsn uint64, logged bool, err error) {
	if !s.walEnabled() || tx.Changed() == 0 {
		tx.Commit()
		return 0, false, nil
	}
	if lsn, err = s.walAppendBatch(graph, tx.Ops()); err != nil {
		tx.Abort()
		return 0, false, err
	}
	tx.Commit()
	return lsn, true, nil
}

// storeOpen writes a to back-end b and returns the proxied view of the
// stored copy: how an array leaves memory, on a write and on
// Externalize alike.
func (s *SSDM) storeOpen(b storage.Backend, a *array.Array) (*array.Array, error) {
	id, err := b.Store(a, storage.ChunkElemsFor(s.Opts.ChunkBytes))
	if err != nil {
		return nil, err
	}
	return b.Open(id)
}

// Externalize moves every resident array in the default graph to the
// attached back-end (the back-end scenario of chapter 6) and returns how
// many triples' objects moved. Each array is stored once and its ID
// rebound to the proxy (rdf.Graph.MoveArrays), so the resident copy is
// freed. This is not operation-logged; with a WAL enabled a checkpoint
// follows instead, so the result is durable when Externalize returns (a
// crash mid-operation recovers the pre-call resident state, which is
// equivalent data). A back-end failing part-way leaves what it stored
// proxied and takes no checkpoint.
func (s *SSDM) Externalize() (int, error) {
	s.op.Lock()
	defer s.op.Unlock()
	b := s.Backend()
	if b == nil {
		return 0, fmt.Errorf("ssdm: no storage back-end attached")
	}
	n, err := s.Dataset.Default.MoveArrays(func(a *array.Array) (*array.Array, error) { return s.storeOpen(b, a) })
	if err == nil && s.walEnabled() {
		if cerr := s.checkpointLocked(); cerr != nil {
			return n, cerr
		}
	}
	return n, err
}

// WriteTurtle serializes a graph ("" = default) as Turtle. It is a
// read operation over a pinned snapshot of the graph — like a query,
// it neither blocks nor observes a concurrent writer. Serializing a
// graph that does not exist writes an empty document instead of
// creating the graph.
func (s *SSDM) WriteTurtle(w io.Writer, graph rdf.IRI) error {
	g := s.readGraph(graph).Snapshot()
	return turtle.Write(w, g, s.prefixSnapshot())
}

// readGraph resolves a graph name without creating missing graphs.
func (s *SSDM) readGraph(graph rdf.IRI) *rdf.Graph {
	if graph == "" {
		return s.Dataset.Default
	}
	if g := s.Dataset.Named(graph, false); g != nil {
		return g
	}
	return rdf.NewGraph()
}

// prefixSnapshot copies the prefix map so serialization never races
// with SetPrefix.
func (s *SSDM) prefixSnapshot() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.Prefixes))
	for k, v := range s.Prefixes {
		out[k] = v
	}
	return out
}

// RegisterForeign exposes a Go function to SciSPARQL queries (§4.4).
// (Re)registering a function invalidates the compiled-query cache.
func (s *SSDM) RegisterForeign(name string, minArgs, maxArgs int, fn engine.ForeignFunc) {
	s.Engine.Funcs.RegisterForeign(name, minArgs, maxArgs, fn)
	s.qcache.invalidate()
}

// RegisterForeignCost is RegisterForeign with a declared per-call cost
// estimate for the optimizer (§4.4): among filters applicable at the
// same plan position, cheaper ones evaluate first.
func (s *SSDM) RegisterForeignCost(name string, minArgs, maxArgs int, cost float64, fn engine.ForeignFunc) {
	s.Engine.Funcs.RegisterForeignCost(name, minArgs, maxArgs, cost, fn)
	s.qcache.invalidate()
}

// SetPrefix declares a namespace prefix used when serializing output.
// It bumps the compiled-query cache epoch: the prefix table is part of
// the environment a cached parse was taken in. With a WAL enabled the
// declaration is logged so it survives a restart.
func (s *SSDM) SetPrefix(name, ns string) {
	s.mu.Lock()
	s.Prefixes[name] = ns
	s.mu.Unlock()
	s.qcache.invalidate()
	s.walLogPrefix(name, ns)
}
