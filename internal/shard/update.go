package shard

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"scisparql/internal/engine"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// Update implements core.Distributor. INSERT DATA / DELETE DATA are
// partitioned by subject and routed to the owning shards; CLEAR and
// DEFINE statements broadcast; LOAD routes through the distributed
// Turtle loader. Pattern-based DELETE/INSERT ... WHERE is not
// supported in distributed mode (its WHERE can join across shards
// while its mutation must stay transactional per shard) and fails
// with ErrUnsupported.
func (c *Coordinator) Update(ctx context.Context, st sparql.Statement, script string, index int, lim engine.Limits) (int, error) {
	if lim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
		defer cancel()
	}
	switch v := st.(type) {
	case *sparql.InsertData:
		return c.routeData(ctx, v.Triples, v.Graph, false)
	case *sparql.DeleteData:
		return c.routeData(ctx, v.Triples, v.Graph, true)
	case *sparql.Clear:
		text := "CLEAR DEFAULT"
		if !v.Default {
			text = "CLEAR GRAPH " + v.Graph.String()
		}
		return c.broadcastUpdate(ctx, text, lim)
	case *sparql.DefineFunction, *sparql.DefineAggregate:
		return c.broadcastDefine(ctx, st, script, index, lim)
	case *sparql.Load:
		src := strings.TrimPrefix(v.Source, "file://")
		b, err := os.ReadFile(src)
		if err != nil {
			return 0, err
		}
		return 0, c.LoadTurtle(string(b), v.Graph)
	default:
		return 0, fmt.Errorf("%w: %T (use INSERT DATA / DELETE DATA)", ErrUnsupported, st)
	}
}

// routeData applies one INSERT DATA / DELETE DATA statement, whose
// triples the parser admits only ground and with IRI predicates: its
// blank labels are rewritten to coordinator-unique ones, and the rows
// go to their owners as in WriteTriples.
func (c *Coordinator) routeData(ctx context.Context, triples []sparql.TriplePattern, graph rdf.IRI, del bool) (int, error) {
	if graph != "" {
		return 0, fmt.Errorf("%w: named-graph data (shards partition the default graph)", ErrUnsupported)
	}
	relabel := c.relabeler()
	rows := make([][]rdf.Term, len(triples))
	for i, tp := range triples {
		rows[i] = []rdf.Term{relabel(tp.S.Term), tp.Path.(sparql.PathIRI).IRI, relabel(tp.O.Term)}
	}
	return c.WriteTriples(ctx, rows, del)
}

// WriteTriples implements core.Distributor: each shard gets its
// subjects' rows as one table, applied there as one transaction, all
// shards concurrently, blank labels as given. A write is atomic per
// shard only: a failing shard leaves the others' tables applied.
func (c *Coordinator) WriteTriples(ctx context.Context, rows [][]rdf.Term, del bool) (int, error) {
	byOwner := make([][][]rdf.Term, len(c.shards))
	for _, row := range rows {
		i := c.part.Owner(row[0])
		byOwner[i] = append(byOwner[i], row)
	}
	var total atomic.Int64
	err := c.scatter(ctx, func(ctx context.Context, i int, sh Shard) error {
		if len(byOwner[i]) == 0 {
			return nil
		}
		c.perShard[i].calls.Add(1)
		n, err := sh.WriteTriples(ctx, byOwner[i], del)
		total.Add(int64(n))
		return err
	})
	return int(total.Load()), err
}

// broadcastUpdate sends one statement text to every shard, returning
// the summed affected count.
func (c *Coordinator) broadcastUpdate(ctx context.Context, text string, lim engine.Limits) (int, error) {
	var total atomic.Int64
	err := c.scatter(ctx, func(ctx context.Context, i int, sh Shard) error {
		c.perShard[i].calls.Add(1)
		n, err := sh.Update(ctx, text, lim)
		if err != nil {
			return err
		}
		total.Add(int64(n))
		return nil
	})
	return int(total.Load()), err
}

// broadcastDefine applies a DEFINE FUNCTION / DEFINE AGGREGATE on the
// coordinator's own engine (gather evaluation resolves names there)
// and broadcasts its text to every shard (pushdown evaluation
// resolves names shard-side). The statement must arrive standalone:
// inside a multi-statement script its text cannot be isolated for
// broadcast.
func (c *Coordinator) broadcastDefine(ctx context.Context, st sparql.Statement, script string, index int, lim engine.Limits) (int, error) {
	if stmts, err := sparql.ParseAll(script); err != nil || len(stmts) != 1 || index != 0 {
		return 0, fmt.Errorf("%w: DEFINE inside a multi-statement script (send it standalone)", ErrUnsupported)
	}
	staged, err := c.node.Engine.UpdateStagedLimits(ctx, st, lim, false)
	if err != nil {
		return 0, err
	}
	staged.Commit()
	c.node.InvalidateQueryCache()
	return c.broadcastUpdate(ctx, script, lim)
}
