package shard

import (
	"context"
	"fmt"

	"scisparql/internal/core"
	"scisparql/internal/rdf"
)

// LoadTurtle implements core.Distributor: the document is parsed and
// consolidated at the coordinator (collection and data-cube
// consolidation walk chains that cross subjects, so they must see the
// whole document before partitioning), blank labels are rewritten to
// coordinator-unique ones, and the triples, arrays included, go to their
// owners as in WriteTriples: one table per shard for the document.
func (c *Coordinator) LoadTurtle(src string, graph rdf.IRI) error {
	if graph != "" {
		return fmt.Errorf("shard: %w in distributed mode: named-graph load (shards partition the default graph)", ErrUnsupported)
	}

	// A scratch SSDM runs the standard load pipeline (parse +
	// configured consolidations) in isolation: no WAL, no shared-cache
	// reconfiguration, nothing attached.
	opts := c.node.Opts
	opts.WALDir = ""
	opts.ChunkCacheBytes = 0
	tmp := core.OpenWith(opts)
	if err := tmp.LoadTurtle(src, ""); err != nil {
		return err
	}
	for name, ns := range tmp.Prefixes {
		c.node.SetPrefix(name, ns)
	}

	relabel := c.relabeler()
	var rows [][]rdf.Term
	tmp.Dataset.Default.Triples(func(s, p, o rdf.Term) bool {
		rows = append(rows, []rdf.Term{relabel(s), p, relabel(o)})
		return true
	})
	_, err := c.WriteTriples(context.Background(), rows, false)
	return err
}
