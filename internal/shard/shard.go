package shard

import (
	"context"
	"fmt"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
	"scisparql/internal/ssdmclient"
)

// Shard is one partition of a distributed dataset: a store that holds
// the triples of the subjects hashed to it and answers scans, full
// queries and updates over them. Implementations must be safe for
// concurrent use — the coordinator fans calls out from many
// goroutines.
type Shard interface {
	// Name identifies the shard in errors, counters and metrics.
	Name() string

	// Scan streams the shard's triples matching the pattern (nil terms
	// are wildcards) through emit; returning false from emit stops the
	// scan early. emit is called serially per Scan call.
	Scan(ctx context.Context, s, p, o rdf.Term, emit func(s, p, o rdf.Term) bool) error

	// Query runs a full SciSPARQL query against the shard's local data
	// under the given limits.
	Query(ctx context.Context, src string, lim engine.Limits) (*engine.Results, error)

	// Update runs a single update statement against the shard.
	Update(ctx context.Context, src string, lim engine.Limits) (int, error)

	// AddArrayTriple attaches an array value under (subject, property)
	// on the shard, storing the array shard-locally.
	AddArrayTriple(ctx context.Context, subject, property rdf.IRI, a *array.Array) error

	// Close releases the shard's resources (connections for remote
	// shards; a no-op for local ones).
	Close() error
}

// LocalShard is a Shard backed by an in-process core.SSDM instance —
// the building block for single-binary topologies and the package's
// tests (the sharded-mix benchmark dials RemoteShard peers instead).
// Updates route through the instance's durable write path, so a
// WAL-enabled local shard keeps its crash-recovery guarantees.
type LocalShard struct {
	name string
	db   *core.SSDM
}

// NewLocalShard wraps an SSDM instance as a shard.
func NewLocalShard(name string, db *core.SSDM) *LocalShard {
	return &LocalShard{name: name, db: db}
}

// DB exposes the underlying instance (tests and benchmarks reach
// through it to seed data or drop caches).
func (l *LocalShard) DB() *core.SSDM { return l.db }

// Name implements Shard.
func (l *LocalShard) Name() string { return l.name }

// Scan implements Shard over a lock-free snapshot of the default
// graph: the scan observes one consistent version and never blocks
// writers.
func (l *LocalShard) Scan(ctx context.Context, s, p, o rdf.Term, emit func(s, p, o rdf.Term) bool) error {
	g := l.db.Dataset.Default.Snapshot()
	g.MatchTermsCtx(ctx, s, p, o, emit)
	return engine.ContextErr(ctx)
}

// Query implements Shard.
func (l *LocalShard) Query(ctx context.Context, src string, lim engine.Limits) (*engine.Results, error) {
	return l.db.QueryLimits(ctx, src, lim)
}

// Update implements Shard on the instance's durable write path.
func (l *LocalShard) Update(ctx context.Context, src string, lim engine.Limits) (int, error) {
	return l.db.UpdateLimits(ctx, src, lim)
}

// AddArrayTriple implements Shard.
func (l *LocalShard) AddArrayTriple(ctx context.Context, subject, property rdf.IRI, a *array.Array) error {
	return l.db.AddArrayTriple(subject, property, a)
}

// Close implements Shard; local shards own no external resources.
func (l *LocalShard) Close() error { return nil }

// RemoteShard is a Shard backed by an SSDM peer reached over the wire
// protocol through ssdmclient (reconnect with backoff, idempotent
// retry for reads). The peer must be a leaf — an ssdm-server with no
// -shards of its own — that speaks the ops query, update, array_triple
// and scan. There is no version negotiation and no fallback: a peer
// that answers "unknown op scan", or refuses the scan because it is
// itself a coordinator, fails the gather with core.ErrShardUnavailable
// naming it.
type RemoteShard struct {
	name string
	c    *ssdmclient.Client
}

// Dial connects to a remote peer and wraps it as a shard; the address
// doubles as the shard name.
func Dial(addr string) (*RemoteShard, error) {
	c, err := ssdmclient.Connect(addr)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", addr, err)
	}
	return &RemoteShard{name: addr, c: c}, nil
}

// NewRemoteShard wraps an existing client connection as a shard.
func NewRemoteShard(name string, c *ssdmclient.Client) *RemoteShard {
	return &RemoteShard{name: name, c: c}
}

// Name implements Shard.
func (r *RemoteShard) Name() string { return r.name }

// guards maps engine limits onto wire-level request guards.
func guards(lim engine.Limits) ssdmclient.Guards {
	return ssdmclient.Guards{Timeout: lim.Timeout, MaxRows: lim.MaxResultRows, MaxBindings: lim.MaxBindings}
}

// Scan implements Shard with the wire protocol's scan op: the pattern
// goes out as terms, never as query text, and the matching triples come
// back as one dictionary-coded batch replayed through emit.
func (r *RemoteShard) Scan(ctx context.Context, s, p, o rdf.Term, emit func(s, p, o rdf.Term) bool) error {
	return r.c.Scan(ctx, s, p, o, emit)
}

// Query implements Shard.
func (r *RemoteShard) Query(ctx context.Context, src string, lim engine.Limits) (*engine.Results, error) {
	res, err := r.c.QueryGuarded(ctx, src, guards(lim))
	if err != nil {
		return nil, err
	}
	out := &engine.Results{Vars: res.Vars, Rows: res.Rows, Bool: res.Bool, Form: sparql.FormSelect}
	if res.Vars == nil && res.Rows == nil {
		out.Form = sparql.FormAsk
	}
	return out, nil
}

// Update implements Shard.
func (r *RemoteShard) Update(ctx context.Context, src string, lim engine.Limits) (int, error) {
	return r.c.UpdateGuarded(ctx, src, guards(lim))
}

// AddArrayTriple implements Shard; the array ships inline and is
// stored on the peer.
func (r *RemoteShard) AddArrayTriple(ctx context.Context, subject, property rdf.IRI, a *array.Array) error {
	return r.c.AddArrayTripleContext(ctx, subject, property, a)
}

// Close implements Shard.
func (r *RemoteShard) Close() error { return r.c.Close() }

// wrapShardErr classifies a shard call failure: engine-typed errors
// (timeout, cancellation, resource limits) pass through so callers
// keep their existing handling, everything else — dead peers,
// transport faults, protocol errors — becomes a typed
// core.ErrShardUnavailable carrying the shard name.
func wrapShardErr(name string, err error) error {
	if err == nil {
		return nil
	}
	switch {
	case isTyped(err):
		return fmt.Errorf("shard %s: %w", name, err)
	default:
		return fmt.Errorf("%w: shard %s: %v", core.ErrShardUnavailable, name, err)
	}
}
