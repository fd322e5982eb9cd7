package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// ErrUnsupported reports a statement class that distributed execution
// does not handle (pattern-based DELETE/INSERT ... WHERE, named-graph
// loads, multi-statement DEFINE scripts). The operation fails cleanly
// at the coordinator; no shard is touched.
var ErrUnsupported = errors.New("shard: statement not supported in distributed mode")

// Coordinator executes one logical dataset spread across a shard
// topology. It implements core.Distributor: armed on an SSDM instance
// via SetDistributor, every query, update and load entering that
// instance — over the TCP protocol, the HTTP front door or the
// embedded API — is routed through it.
//
// Queries take one of two paths. Pushdown sends the full query text
// to every shard (or, for a ground subject, to its one owner shard)
// and recombines the per-shard results at the coordinator — row
// unions for plain star selects, partial-aggregate merges for
// COUNT/SUM/MIN/MAX. Gather scatters the query's triple-pattern masks
// to all shards, merges the matching triples into a scratch graph,
// and runs the coordinator's full engine over it — correct for every
// query shape at the cost of moving the candidate triples. The
// pushdown classifier (pushdown.go) decides per query.
type Coordinator struct {
	node   *core.SSDM
	shards []Shard
	part   *Partitioner

	pushdownQs atomic.Int64
	gatherQs   atomic.Int64
	stats      struct {
		scatters atomic.Int64
		errors   atomic.Int64
	}
	perShard []struct {
		calls  atomic.Int64
		errors atomic.Int64
		rows   atomic.Int64
	}

	nonce   uint64       // in every minted blank label, so a restart re-issues none
	blankNo atomic.Int64 // counts minted blank labels
}

// New creates a coordinator over the given topology. node supplies
// the coordinator-side engine (function registry, batch knobs,
// limits) used to evaluate gathered queries; it is a pure coordinator
// — its own dataset holds no partitioned data.
func New(node *core.SSDM, shards []Shard) (*Coordinator, error) {
	part, err := NewPartitioner(len(shards))
	if err != nil {
		return nil, err
	}
	c := &Coordinator{node: node, shards: shards, part: part, nonce: rand.Uint64()}
	c.perShard = make([]struct {
		calls  atomic.Int64
		errors atomic.Int64
		rows   atomic.Int64
	}, len(shards))
	return c, nil
}

// Close closes every shard, returning the first error.
func (c *Coordinator) Close() error {
	var first error
	for _, sh := range c.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// relabeler maps each blank label of one statement or document to a
// fresh coordinator-unique one. Shards keep labels as given, so a blank
// node spread over several shards is one node on all of them.
func (c *Coordinator) relabeler() func(rdf.Term) rdf.Term {
	labels := map[rdf.Blank]rdf.Blank{}
	return func(t rdf.Term) rdf.Term {
		b, ok := t.(rdf.Blank)
		if !ok {
			return t
		}
		nb, ok := labels[b]
		if !ok {
			nb = rdf.Blank(fmt.Sprintf("co%016x-%d", c.nonce, c.blankNo.Add(1)))
			labels[b] = nb
		}
		return nb
	}
}

// Query implements core.Distributor.
func (c *Coordinator) Query(ctx context.Context, src string, q *sparql.Query, lim engine.Limits) (*engine.Results, error) {
	res, _, err := c.query(ctx, src, q, lim, nil)
	return res, err
}

// QueryTraced implements core.Distributor: Query with a trace carrying
// the distributed-execution counters and coarse phase totals.
func (c *Coordinator) QueryTraced(ctx context.Context, src string, q *sparql.Query, lim engine.Limits) (*engine.Results, *engine.Trace, error) {
	qs := &qstat{}
	t0 := time.Now()
	res, mode, err := c.query(ctx, src, q, lim, qs)
	tr := &engine.Trace{
		TotalNanos: time.Since(t0).Nanoseconds(),
		ShardMode:  mode,
		Shards:     len(c.shards),
		ShardCalls: qs.calls.Load(),
		ShardRows:  qs.rows.Load(),
	}
	if res != nil {
		tr.Rows = res.Len()
	}
	if err != nil {
		tr.Error = err.Error()
	}
	tr.Plan = fmt.Sprintf("  distributed %s over %d shard(s)\n", mode, len(c.shards))
	return res, tr, err
}

// qstat tracks one query's shard activity for its trace.
type qstat struct {
	calls atomic.Int64
	rows  atomic.Int64
}

func (qs *qstat) call() {
	if qs != nil {
		qs.calls.Add(1)
	}
}

func (qs *qstat) addRows(n int64) {
	if qs != nil {
		qs.rows.Add(n)
	}
}

// query dispatches one parsed query: pushdown when the classifier
// proves it shard-local, gather otherwise. The resolved limit's
// timeout bounds the whole distributed execution.
func (c *Coordinator) query(ctx context.Context, src string, q *sparql.Query, lim engine.Limits, qs *qstat) (*engine.Results, string, error) {
	if lim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
		defer cancel()
	}
	if plan := classify(src, q); plan != nil {
		c.pushdownQs.Add(1)
		res, err := c.runPushdown(ctx, plan, lim, qs)
		return res, "pushdown", err
	}
	c.gatherQs.Add(1)
	res, err := c.runGather(ctx, q, lim, qs)
	return res, "gather", err
}

// Stats implements core.Distributor.
func (c *Coordinator) Stats() core.ShardStats {
	st := core.ShardStats{
		Shards:          len(c.shards),
		PushdownQueries: c.pushdownQs.Load(),
		GatherQueries:   c.gatherQs.Load(),
		Scatters:        c.stats.scatters.Load(),
		Errors:          c.stats.errors.Load(),
	}
	for i, sh := range c.shards {
		st.PerShard = append(st.PerShard, core.ShardCounters{
			Name:   sh.Name(),
			Calls:  c.perShard[i].calls.Load(),
			Errors: c.perShard[i].errors.Load(),
			Rows:   c.perShard[i].rows.Load(),
		})
	}
	return st
}
