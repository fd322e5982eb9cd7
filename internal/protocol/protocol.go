// Package protocol defines the wire format between an SSDM server and
// its clients (dissertation §5.1, §7.3): newline-delimited JSON
// request/response pairs over TCP, with arrays — and whole query
// answers — carried as base64-encoded binary so that numeric payloads
// do not suffer JSON number inflation.
//
// This is the protocol the Matlab integration of chapter 7 speaks; the
// Go client in internal/ssdmclient plays Matlab's role.
//
// # Row tables
//
// Every binary table on the wire has one layout, the row table. A
// solution table — the answer to query, execute, and explain with
// Analyze — is one row table, Response.Rows, base64 on the wire like an
// array, plus Response.NRows, the number of rows in it; a solution with
// no rows sends no table. EncodeRows and AppendIDRows write the layout,
// from terms and from a graph's IDs; EachRow is the only code that
// reads it, and DecodeRows collects what it reads:
//
//	uint32  d, the number of distinct terms in the table (little-endian)
//	uint32  n, the number of rows (little-endian)
//	uint32  w, the number of cells in a row (little-endian)
//	n rows  w cells each, row-major; a row of width 0 is one cell 0, so
//	        every row costs a byte
//
//	cell    uvarint 0: unbound
//	        uvarint 1, then a term: it becomes the next dictionary entry
//	        uvarint k ≥ 2: the (k-2)-th term first sent in this table
//
// A table is self-contained — its dictionary lives and dies with the
// message, so nothing is mirrored between peers and a retry is safe —
// and each distinct term crosses once however many cells repeat it.
//
//	term    byte kind, then
//	        0 iri, 1 blank, 2 plain string: text
//	        3 language-tagged string: text value, text tag
//	        4 integer: zigzag varint
//	        5 double: 8 bytes, little-endian IEEE-754 bits
//	        6 boolean: one byte, 0 or 1
//	        7 other typed literal: text lexical form, text datatype IRI
//	        8 dateTime: text, RFC 3339 with nanoseconds, offset kept
//	        9 array: uint64 n (little-endian), then n bytes of
//	          array.AppendMarshal
//	text    uvarint length, then that many bytes
//
// # Triple writes
//
// Ground triples travel the other way in the same table: OpTriples adds
// Request.Rows (subject, predicate, object; with Request.Delete, removes
// them) as one transaction, blank labels as given, and answers the count
// changed. A table that does not decode, is not three cells wide, has an
// unbound cell or a non-IRI predicate gets code "error" and applies
// nothing. It is how a coordinator routes writes to its shards.
//
// # Shard scans
//
// A shard coordinator's gather legs are triple-pattern matches, and
// they follow the same rule: OpScan sends the pattern as Request.Rows,
// one row of three cells whose unbound cells are the wildcards, and is
// answered from the default graph's indexes, with no query text,
// parser, plan or engine on either side, by one row table —
// Response.Rows, sent even when it has no rows — plus Response.NRows.
// The answer's width is the pattern's number of wildcards, its cells
// the matches' terms at those positions in s, p, o order; bound
// positions are not sent, so a fully-bound pattern is answered by a
// table of width 0 holding at most one row. A pattern that is not one
// row of three cells gets code "error". Only a leaf answers: a server
// that itself coordinates shards refuses the op, and a server that
// predates it answers "unknown op scan"; there is no version field and
// no fallback, and an answer of any other shape is ErrMalformed. The
// request's TimeoutMS and the instance's row cap apply as they do to a
// query (codes "timeout" and "resource_limit"; a table is never
// truncated).
//
// The write-ahead log and checkpoint images store triples as row tables
// too (see core's WAL integration). No request, response or record
// holds a JSON Term: Term, EncodeTerm and DecodeTerm are left only for
// the benchmark's codec probe, and go when it does.
package protocol

import (
	"encoding/base64"
	"fmt"
	"math"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
)

// Op identifies a request kind.
const (
	OpPing       = "ping"
	OpQuery      = "query"       // Text: a SciSPARQL query
	OpExecute    = "execute"     // Text: statements; responses carry last query result
	OpUpdate     = "update"      // Text: a single update
	OpLoadTurtle = "load_turtle" // Text: a Turtle document, Graph optional
	OpStoreArray = "store_array" // Array payload -> ArrayID
	OpTriples    = "triples"     // Rows: ground triples to add, or with Delete to remove -> Count
	OpStats      = "stats"       // server statistics snapshot -> Stats
	OpExplain    = "explain"     // Text: a query; plan only, or executed plan + trace with Analyze
	OpScan       = "scan"        // Rows: one triple pattern -> Rows, NRows (leaf shards only)
)

// Request is one client request. The guard fields bound the request's
// execution server-side; zero values fall back to the server's
// configured defaults (they can tighten the defaults, never loosen
// them).
type Request struct {
	Op    string `json:"op"`
	Text  string `json:"text,omitempty"`
	Graph string `json:"graph,omitempty"`
	Array string `json:"array,omitempty"` // base64(array.AppendMarshal)

	// Rows is a table (see EncodeRows), base64 on the wire: OpTriples'
	// triples, which with Delete the op removes instead of adding, or
	// OpScan's pattern, one row of three cells, an unbound cell a
	// wildcard.
	Rows   []byte `json:"rows,omitempty"`
	Delete bool   `json:"delete,omitempty"`

	// TimeoutMS is the wall-clock deadline for this request in
	// milliseconds (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxRows caps result rows (0 = server default).
	MaxRows int `json:"max_rows,omitempty"`
	// MaxBindings caps intermediate bindings (0 = server default).
	MaxBindings int64 `json:"max_bindings,omitempty"`

	// Analyze upgrades an OpExplain request from plan-only to EXPLAIN
	// ANALYZE: the query is executed and the response carries the
	// executed plan annotated with timings and counters (Trace) along
	// with the result rows.
	Analyze bool `json:"analyze,omitempty"`
}

// Error codes carried in Response.Code so clients can classify
// failures without parsing message text.
const (
	// CodeError is a generic request failure (parse error, unknown
	// graph, bad payload, ...).
	CodeError = "error"
	// CodeTimeout reports that the query exceeded its deadline.
	CodeTimeout = "timeout"
	// CodeResourceLimit reports that a result-row or bindings budget
	// was exceeded.
	CodeResourceLimit = "resource_limit"
	// CodeCancelled reports that the request's context was cancelled
	// (client disconnect, server shutdown).
	CodeCancelled = "cancelled"
	// CodeInternal reports a trapped server-side panic; the server
	// keeps serving.
	CodeInternal = "internal"
	// CodeShutdown reports that the server is draining and no longer
	// accepts work.
	CodeShutdown = "shutdown"
	// CodeDurability reports that an update could not be made durable
	// (write-ahead log append or sync failed); the update was not
	// applied and the client may retry once the operator intervenes.
	CodeDurability = "durability"
	// CodeShardUnavailable reports that a shard of a partitioned
	// deployment could not be reached; partial results were suppressed
	// and the request may be retried once the shard is back.
	CodeShardUnavailable = "shard_unavailable"
)

// Term is the JSON encoding of one RDF term. A double that is NaN or
// infinite, which JSON has no number for, carries its XSD lexical form
// ("NaN", "INF" or "-INF") in S, with F zero.
type Term struct {
	T     string  `json:"t"` // iri blank str int float bool datetime typed array
	S     string  `json:"s,omitempty"`
	I     int64   `json:"i,omitempty"`
	F     float64 `json:"f,omitempty"`
	Lang  string  `json:"lang,omitempty"`
	Dt    string  `json:"dt,omitempty"`
	Array string  `json:"array,omitempty"` // base64(array.AppendMarshal)
}

// Response is one server reply.
type Response struct {
	OK      bool     `json:"ok"`
	Error   string   `json:"error,omitempty"`
	Code    string   `json:"code,omitempty"` // error class, one of the Code constants
	Vars    []string `json:"vars,omitempty"`
	Bool    bool     `json:"bool,omitempty"`
	Count   int      `json:"count,omitempty"`
	ArrayID int64    `json:"array_id,omitempty"`
	Stats   *Stats   `json:"stats,omitempty"`

	// Rows is a row table (see EncodeRows), base64 on the wire: a
	// solution, absent when it has no rows, or OpScan's matches, always
	// there. NRows is the number of rows in it.
	Rows  []byte `json:"rows,omitempty"`
	NRows int    `json:"nrows,omitempty"`

	// Explain carries the rendered plan for OpExplain (static plan, or
	// the annotated executed plan when the request set Analyze).
	Explain string `json:"explain,omitempty"`
	// Trace carries the execution profile for OpExplain+Analyze.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// TraceInfo is the wire form of an engine execution trace (EXPLAIN
// ANALYZE). Durations are nanoseconds. See engine.Trace for field
// semantics.
type TraceInfo struct {
	ParseNS    int64 `json:"parse_ns"`
	PlanCached bool  `json:"plan_cached"`

	TotalNS int64 `json:"total_ns"`
	WhereNS int64 `json:"where_ns"`
	AggNS   int64 `json:"agg_ns"`
	ProjNS  int64 `json:"proj_ns"`
	SortNS  int64 `json:"sort_ns"`

	Rows       int   `json:"rows"`
	Bindings   int64 `json:"bindings"`
	MatchCalls int64 `json:"match_calls"`
	Matched    int64 `json:"matched"`

	// Vectorized-execution counters: whether any part of the query ran
	// batch-at-a-time, and the batches/rows its pipelines emitted.
	Vectorized bool  `json:"vectorized,omitempty"`
	VecBatches int64 `json:"vec_batches,omitempty"`
	VecRows    int64 `json:"vec_rows,omitempty"`

	// Batch-native aggregation / vectorized ORDER BY counters.
	VecAggGroups int64 `json:"vec_agg_groups,omitempty"`
	VecSortRows  int64 `json:"vec_sort_rows,omitempty"`
	VecSortTopK  int64 `json:"vec_sort_topk,omitempty"`

	ChunkFetches int64 `json:"chunk_fetches"`
	ChunkWaitNS  int64 `json:"chunk_wait_ns"`

	// Distributed-execution counters, set when the query ran through a
	// shard coordinator: the dispatch mode ("pushdown" or "gather"),
	// the topology width, and the per-query shard traffic.
	ShardMode  string `json:"shard_mode,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	ShardCalls int64  `json:"shard_calls,omitempty"`
	ShardRows  int64  `json:"shard_rows,omitempty"`

	Error string `json:"error,omitempty"`
	Plan  string `json:"plan"`
}

// ShardInfo is the wire form of one shard's cumulative coordinator
// counters.
type ShardInfo struct {
	Name   string `json:"name"`
	Calls  int64  `json:"calls"`
	Errors int64  `json:"errors"`
	Rows   int64  `json:"rows"`
}

// Stats is the server statistics snapshot returned for OpStats:
// compiled-query cache counters, chunk-cache counters and the
// default-graph size — the numbers an operator watches to confirm hot
// queries are being served from cache and the array chunk cache is
// sized right.
type Stats struct {
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	CacheEpoch   uint64 `json:"cache_epoch"`
	Triples      int    `json:"triples"`

	// Shared chunk-cache counters (see array.ChunkCacheStats).
	ChunkCacheHits      int64 `json:"chunk_cache_hits"`
	ChunkCacheMisses    int64 `json:"chunk_cache_misses"`
	ChunkCacheCoalesced int64 `json:"chunk_cache_coalesced"`
	ChunkCacheEvictions int64 `json:"chunk_cache_evictions"`
	ChunkCacheEntries   int64 `json:"chunk_cache_entries"`
	ChunkCacheBytes     int64 `json:"chunk_cache_bytes"`
	ChunkCachePeakBytes int64 `json:"chunk_cache_peak_bytes"`
	ChunkCacheBudget    int64 `json:"chunk_cache_budget"`

	// Term-dictionary footprint across the dataset's graphs.
	DictTerms      int    `json:"dict_terms"`
	DictBytes      int64  `json:"dict_bytes"`
	DictGeneration uint64 `json:"dict_generation"`

	// Cumulative vectorized-execution counters.
	VecQueries int64 `json:"vec_queries"`
	VecBatches int64 `json:"vec_batches"`
	VecRows    int64 `json:"vec_rows"`

	// Batch-native aggregation and vectorized ORDER BY activity.
	VecAggQueries  int64 `json:"vec_agg_queries"`
	VecAggGroups   int64 `json:"vec_agg_groups"`
	VecSortQueries int64 `json:"vec_sort_queries"`
	VecTopKQueries int64 `json:"vec_topk_queries"`

	// Write-ahead-log counters; all zero when the instance runs
	// without a WAL (WALEnabled false).
	WALEnabled        bool   `json:"wal_enabled,omitempty"`
	WALAppends        int64  `json:"wal_appends,omitempty"`
	WALAppendedBytes  int64  `json:"wal_appended_bytes,omitempty"`
	WALSyncs          int64  `json:"wal_syncs,omitempty"`
	WALCommits        int64  `json:"wal_commits,omitempty"`
	WALGroupedCommits int64  `json:"wal_grouped_commits,omitempty"`
	WALSegments       int    `json:"wal_segments,omitempty"`
	WALTailLSN        uint64 `json:"wal_tail_lsn,omitempty"`
	WALSyncedLSN      uint64 `json:"wal_synced_lsn,omitempty"`
	WALRecoveredRecs  int64  `json:"wal_recovered_records,omitempty"`
	WALRecoveryNS     int64  `json:"wal_recovery_ns,omitempty"`

	// Shard-coordinator counters; all zero/empty on single-node
	// instances (Shards 0).
	Shards         int         `json:"shards,omitempty"`
	ShardPushdown  int64       `json:"shard_pushdown_queries,omitempty"`
	ShardGather    int64       `json:"shard_gather_queries,omitempty"`
	ShardScatters  int64       `json:"shard_scatters,omitempty"`
	ShardErrors    int64       `json:"shard_errors,omitempty"`
	ShardBreakdown []ShardInfo `json:"shard_breakdown,omitempty"`
}

// EncodeTerm converts an RDF term to its wire form.
func EncodeTerm(t rdf.Term) (Term, error) {
	switch v := t.(type) {
	case nil:
		return Term{T: "unbound"}, nil
	case rdf.IRI:
		return Term{T: "iri", S: string(v)}, nil
	case rdf.Blank:
		return Term{T: "blank", S: string(v)}, nil
	case rdf.String:
		return Term{T: "str", S: v.Val, Lang: v.Lang}, nil
	case rdf.Integer:
		return Term{T: "int", I: int64(v)}, nil
	case rdf.Float:
		switch f := float64(v); {
		case math.IsNaN(f):
			return Term{T: "float", S: "NaN"}, nil
		case math.IsInf(f, 1):
			return Term{T: "float", S: "INF"}, nil
		case math.IsInf(f, -1):
			return Term{T: "float", S: "-INF"}, nil
		}
		return Term{T: "float", F: float64(v)}, nil
	case rdf.Boolean:
		b := int64(0)
		if v {
			b = 1
		}
		return Term{T: "bool", I: b}, nil
	case rdf.DateTime:
		return Term{T: "datetime", S: v.T.Format(time.RFC3339Nano)}, nil
	case rdf.Typed:
		return Term{T: "typed", S: v.Lexical, Dt: string(v.Datatype)}, nil
	case rdf.Array:
		s, err := EncodeArray(v.A)
		if err != nil {
			return Term{}, err
		}
		return Term{T: "array", Array: s}, nil
	default:
		return Term{}, fmt.Errorf("protocol: cannot encode %T", t)
	}
}

// DecodeTerm converts a wire term back to an RDF term (nil for
// unbound).
func DecodeTerm(t Term) (rdf.Term, error) {
	switch t.T {
	case "unbound":
		return nil, nil
	case "iri":
		return rdf.IRI(t.S), nil
	case "blank":
		return rdf.Blank(t.S), nil
	case "str":
		return rdf.String{Val: t.S, Lang: t.Lang}, nil
	case "int":
		return rdf.Integer(t.I), nil
	case "float":
		switch t.S {
		case "":
			return rdf.Float(t.F), nil
		case "NaN":
			return rdf.Float(math.NaN()), nil
		case "INF":
			return rdf.Float(math.Inf(1)), nil
		case "-INF":
			return rdf.Float(math.Inf(-1)), nil
		}
		return nil, fmt.Errorf("protocol: bad double %q", t.S)
	case "bool":
		return rdf.Boolean(t.I != 0), nil
	case "datetime":
		ts, err := time.Parse(time.RFC3339Nano, t.S)
		if err != nil {
			return nil, fmt.Errorf("protocol: bad datetime %q", t.S)
		}
		return rdf.DateTime{T: ts}, nil
	case "typed":
		return rdf.Typed{Lexical: t.S, Datatype: rdf.IRI(t.Dt)}, nil
	case "array":
		a, err := DecodeArray(t.Array)
		if err != nil {
			return nil, err
		}
		return rdf.NewArray(a), nil
	default:
		return nil, fmt.Errorf("protocol: unknown term kind %q", t.T)
	}
}

// EncodeArray serializes an array for the wire.
func EncodeArray(a *array.Array) (string, error) {
	b, err := array.AppendMarshal(nil, a)
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(b), nil
}

// DecodeArray reverses EncodeArray.
func DecodeArray(s string) (*array.Array, error) {
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("protocol: bad array payload: %w", err)
	}
	return array.Unmarshal(b)
}
