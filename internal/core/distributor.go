package core

import (
	"context"
	"errors"

	"scisparql/internal/engine"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// ErrShardUnavailable reports that a distributed operation could not
// complete because at least one shard of the topology failed or was
// unreachable. The coordinator fails fast: the first shard error
// cancels the remaining fan-out and the query returns this typed
// error instead of a partial (silently wrong) answer. Transports map
// it to 503 so clients know to retry once the shard recovers.
var ErrShardUnavailable = errors.New("ssdm: shard unavailable (partial results suppressed)")

// Distributor intercepts query, update and load execution when this
// SSDM instance coordinates a sharded deployment (internal/shard
// provides the implementation). When armed via SetDistributor, the
// public entry points — QueryLimits, QueryAnalyze, UpdateLimits,
// ExecuteLimits, UpdateStatement, LoadTurtle and WriteTriples —
// delegate to it instead of the local dataset, so every transport (TCP
// server, HTTP front door, embedded API) becomes shard-aware unchanged.
type Distributor interface {
	// Query executes a parsed query across the topology. src is the
	// query's own source text when known ("" when the query was
	// embedded in a multi-statement script — the coordinator then uses
	// its always-correct gather path, which needs no text to forward).
	// lim arrives already resolved against the instance defaults.
	Query(ctx context.Context, src string, q *sparql.Query, lim engine.Limits) (*engine.Results, error)

	// QueryTraced is Query with an execution trace collected; the
	// coordinator fills the trace's distributed-execution fields.
	QueryTraced(ctx context.Context, src string, q *sparql.Query, lim engine.Limits) (*engine.Results, *engine.Trace, error)

	// Update executes a parsed update statement across the topology.
	// script and index identify the statement's source text as in
	// SSDM.UpdateStatement.
	Update(ctx context.Context, st sparql.Statement, script string, index int, lim engine.Limits) (int, error)

	// LoadTurtle distributes a Turtle document across the topology.
	LoadTurtle(src string, graph rdf.IRI) error

	// WriteTriples routes ground triples, already checked as in
	// SSDM.WriteTriples, to their owners, keeping blank labels as given.
	WriteTriples(ctx context.Context, rows [][]rdf.Term, del bool) (int, error)

	// Stats reports the coordinator's cumulative counters.
	Stats() ShardStats
}

// ShardCounters are the per-shard counters a coordinator accumulates.
type ShardCounters struct {
	// Name identifies the shard (its address, or a local label).
	Name string `json:"name"`
	// Calls counts scatter-gather and pushdown calls sent to the shard.
	Calls int64 `json:"calls"`
	// Errors counts calls that returned an error.
	Errors int64 `json:"errors"`
	// Rows counts result rows and scan triples streamed back.
	Rows int64 `json:"rows"`
}

// ShardStats aggregates a coordinator's distributed-execution
// counters for EXPLAIN ANALYZE, the stats op and /metrics.
type ShardStats struct {
	// Shards is the topology size.
	Shards int `json:"shards"`
	// PushdownQueries counts queries answered by per-shard execution
	// with partial aggregation or row-union merge at the coordinator.
	PushdownQueries int64 `json:"pushdown_queries"`
	// GatherQueries counts queries answered by scattering triple-
	// pattern scans and evaluating on the merged scratch graph.
	GatherQueries int64 `json:"gather_queries"`
	// Scatters counts scatter fan-outs issued (one per multi-shard
	// operation, not per shard call).
	Scatters int64 `json:"scatters"`
	// Errors counts shard calls that failed.
	Errors int64 `json:"errors"`
	// PerShard holds the per-shard breakdown in topology order.
	PerShard []ShardCounters `json:"per_shard,omitempty"`
}

// SetDistributor arms (non-nil) or disarms (nil) distributed
// execution on this instance. Arm it once at startup, before serving
// traffic: the field is not synchronized against in-flight requests.
func (s *SSDM) SetDistributor(d Distributor) { s.dist = d }

// Distributor returns the armed distributor, or nil when this
// instance executes locally.
func (s *SSDM) Distributor() Distributor { return s.dist }

// ShardStats reports the armed distributor's counters; ok is false
// when the instance is not a coordinator.
func (s *SSDM) ShardStats() (ShardStats, bool) {
	if s.dist == nil {
		return ShardStats{}, false
	}
	return s.dist.Stats(), true
}
