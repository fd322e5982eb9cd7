// Package protocol defines the wire format between an SSDM server and
// its clients (dissertation §5.1, §7.3): request/response pairs over
// TCP, each one length-prefixed frame, with arrays — and whole query
// answers — carried as raw binary so that numeric payloads do not suffer
// JSON number inflation.
//
// This is the protocol the Matlab integration of chapter 7 speaks; the
// Go client in internal/ssdmclient plays Matlab's role.
//
// # Frames
//
// Each request and response is one frame, read and written by Wire:
//
//	byte    version 1 (never '{': a JSON-lines peer fails at its first
//	        frame, ErrFrame, and nothing it sent is applied)
//	uint32  e, uint32 p: the lengths below (little-endian), e + p ≤ 2^28
//	e bytes the envelope: the Request or Response as JSON, less its
//	        binary field
//	p bytes the payload, raw: the row table of Request.Rows or
//	        Response.Rows, or OpStoreArray's array.AppendMarshal bytes
//
// No base64 travels on the wire.
//
// # Row tables
//
// Every binary table on the wire has one layout, the row table. A
// solution — the answer to query, execute, and explain with Analyze — is
// one row table, Response.Rows, plus Response.NRows, the number of rows
// in it; a solution with no rows sends no table. EncodeRows and AppendIDRows write the layout,
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
// changed; a table that is not three cells wide and ground, with IRI
// predicates, gets code "error" and applies nothing. It is how a
// coordinator routes writes to its shards.
//
// # Shard scans
//
// A shard coordinator's gather legs are triple-pattern matches: OpScan
// sends Request.Rows, one row of three cells whose unbound cells are the
// wildcards, and a leaf answers from its default graph's indexes by one
// row table, Response.Rows (sent even with no rows), of the matches'
// terms at the wildcard positions in s, p, o order — a fully-bound
// pattern gets a table of width 0 with at most one row. Another pattern
// shape gets code "error", another answer shape is ErrMalformed, and the
// guards apply as to a query ("timeout", "resource_limit"; a table is
// never truncated).
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

// QueryClass reports whether op runs a query, an update, a triple write
// or a scan: the ops the server bounds by Request.TimeoutMS (a typed
// timeout once it passes) and times in its latency histogram and
// slow-query log. The others run to completion whatever the request says.
func QueryClass(op string) bool {
	switch op {
	case OpQuery, OpExecute, OpUpdate, OpTriples, OpExplain, OpScan:
		return true
	}
	return false
}

// Request is one client request. The guard fields bound the request's
// execution server-side; zero values fall back to the server's
// configured defaults (they can tighten the defaults, never loosen
// them).
type Request struct {
	Op    string `json:"op"`
	Text  string `json:"text,omitempty"`
	Graph string `json:"graph,omitempty"`
	Array []byte `json:"-"` // OpStoreArray's payload: array.AppendMarshal

	// Rows is a table (see EncodeRows), the frame's payload: OpTriples'
	// triples, which with Delete the op removes instead of adding, or
	// OpScan's pattern, one row of three cells, an unbound cell a
	// wildcard.
	Rows   []byte `json:"-"`
	Delete bool   `json:"delete,omitempty"`

	TimeoutMS   int64 `json:"timeout_ms,omitempty"`   // wall-clock deadline in milliseconds
	MaxRows     int   `json:"max_rows,omitempty"`     // cap on result rows
	MaxBindings int64 `json:"max_bindings,omitempty"` // cap on intermediate bindings

	// Analyze makes OpExplain EXPLAIN ANALYZE: the query runs, and the
	// response carries its rows and the plan annotated (Trace).
	Analyze bool `json:"analyze,omitempty"`
}

// Error codes carried in Response.Code so clients can classify
// failures without parsing message text.
const (
	CodeError         = "error"          // a generic failure: parse error, unknown graph, bad payload
	CodeTimeout       = "timeout"        // the request exceeded its deadline
	CodeResourceLimit = "resource_limit" // a result-row or bindings budget was exceeded
	CodeCancelled     = "cancelled"      // the request's context was cancelled (disconnect, shutdown)
	CodeInternal      = "internal"       // a trapped server-side panic; the server keeps serving
	CodeShutdown      = "shutdown"       // the server is draining and accepts no work
	// CodeDurability: an update could not be made durable (WAL append or
	// sync failed) and was not applied; retry once the operator has
	// intervened.
	CodeDurability = "durability"
	// CodeShardUnavailable: a shard could not be reached; partial results
	// were suppressed, and the request may be retried once it is back.
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

	// Rows is a row table (see EncodeRows), the frame's payload: a
	// solution, absent when it has no rows, or OpScan's matches, always
	// there. NRows is the number of rows in it.
	Rows  []byte `json:"-"`
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

	Vectorized   bool  `json:"vectorized,omitempty"`
	VecBatches   int64 `json:"vec_batches,omitempty"`
	VecRows      int64 `json:"vec_rows,omitempty"`
	VecAggGroups int64 `json:"vec_agg_groups,omitempty"`
	VecSortRows  int64 `json:"vec_sort_rows,omitempty"`
	VecSortTopK  int64 `json:"vec_sort_topk,omitempty"`

	ChunkFetches int64 `json:"chunk_fetches"`
	ChunkWaitNS  int64 `json:"chunk_wait_ns"`

	// Set when the query ran through a shard coordinator.
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

// EncodeArray serializes an array as base64 text, a codec of its own: on
// the wire an array travels raw.
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
