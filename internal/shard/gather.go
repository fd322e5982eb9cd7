package shard

import (
	"context"
	"fmt"
	"sync"

	"scisparql/internal/engine"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// Gather execution — the always-correct fallback. The coordinator
// derives a set of triple-pattern masks covering every pattern the
// query can touch (walking OPTIONAL/UNION/MINUS/subquery/EXISTS
// groups; property paths contribute one mask per mentioned predicate,
// or a full wildcard for variable/negated steps), scatters each mask
// to all shards, collects the matching triples, builds a scratch graph
// from them in one pass once every shard has answered, and evaluates
// the unmodified query on the coordinator's engine over that graph.
// This is the federated-query shape: correctness does not depend on the
// partitioning at all, only on the masks being a superset of what the
// query reads.

// mask is one scatter scan pattern; nil positions are wildcards.
type mask struct {
	s, p, o rdf.Term
}

// covers reports whether m matches at least everything n does.
func (m mask) covers(n mask) bool {
	pos := func(a, b rdf.Term) bool {
		if a == nil {
			return true
		}
		return b != nil && rdf.SameTerm(a, b)
	}
	return pos(m.s, n.s) && pos(m.p, n.p) && pos(m.o, n.o)
}

// maskTerm converts a pattern node position into a mask term: vars
// and blanks (query blanks are variables) are wildcards.
func maskTerm(n sparql.Node) rdf.Term {
	if n.IsVar() || n.Term == nil || n.Term.Kind() == rdf.KindBlank {
		return nil
	}
	return n.Term
}

// collectMasks walks a query and accumulates scan masks, or returns
// an error for constructs whose triples cannot be bounded to the
// default graph (named-graph access — shards partition the default
// graph only).
func collectMasks(q *sparql.Query, into *[]mask) error {
	if len(q.From) > 0 || len(q.FromNamed) > 0 {
		return fmt.Errorf("shard: %w in distributed mode: FROM / FROM NAMED", ErrUnsupported)
	}
	if q.Where == nil {
		return nil
	}
	return collectGroup(q.Where, into)
}

func collectGroup(g *sparql.Group, into *[]mask) error {
	for _, el := range g.Elems {
		if err := collectElem(el, into); err != nil {
			return err
		}
	}
	return nil
}

func collectElem(el sparql.Element, into *[]mask) error {
	// The parser builds every element as a value; anything else falls to
	// the default.
	switch v := el.(type) {
	case sparql.BGP:
		for _, tp := range v.Triples {
			collectPattern(tp, into)
		}
	case sparql.Optional:
		return collectGroup(v.Group, into)
	case sparql.Union:
		for _, b := range v.Branches {
			if err := collectGroup(b, into); err != nil {
				return err
			}
		}
	case sparql.Minus:
		return collectGroup(v.Group, into)
	case sparql.Filter:
		return collectExpr(v.Cond, into)
	case sparql.Bind:
		return collectExpr(v.Expr, into)
	case sparql.SubGroup:
		return collectGroup(v.Group, into)
	case sparql.SubSelect:
		return collectMasks(v.Query, into)
	case sparql.InlineData:
		// VALUES carries its own rows; nothing to fetch.
	case sparql.GraphClause:
		return fmt.Errorf("shard: %w in distributed mode: GRAPH clause", ErrUnsupported)
	default:
		// Unknown element: be safe and fetch everything.
		*into = append(*into, mask{})
	}
	return nil
}

// collectPattern derives the masks of one triple pattern. A plain IRI
// predicate gives an exact mask; a path contributes one
// subject-unconstrained mask per predicate it mentions (paths hop
// across subjects); variable or negated predicate steps degrade to a
// full wildcard.
func collectPattern(tp sparql.TriplePattern, into *[]mask) {
	s, o := maskTerm(tp.S), maskTerm(tp.O)
	switch p := tp.Path.(type) {
	case sparql.PathIRI:
		*into = append(*into, mask{s: s, p: rdf.Term(p.IRI), o: o})
	case sparql.PathVar:
		*into = append(*into, mask{s: s, o: o})
	default:
		iris, exact := pathIRIs(tp.Path)
		if !exact {
			*into = append(*into, mask{})
			return
		}
		for _, iri := range iris {
			// Path steps traverse intermediate nodes, so neither end
			// of the original pattern bounds the per-step triples.
			*into = append(*into, mask{p: rdf.Term(iri)})
		}
	}
}

// pathIRIs lists the predicates a property path can traverse; exact
// is false when the path admits arbitrary predicates (variables,
// negated sets).
func pathIRIs(p sparql.Path) (iris []rdf.IRI, exact bool) {
	switch v := p.(type) {
	case sparql.PathIRI:
		return []rdf.IRI{v.IRI}, true
	case sparql.PathInverse:
		return pathIRIs(v.P)
	case sparql.PathSeq:
		l, lok := pathIRIs(v.L)
		r, rok := pathIRIs(v.R)
		return append(l, r...), lok && rok
	case sparql.PathAlt:
		l, lok := pathIRIs(v.L)
		r, rok := pathIRIs(v.R)
		return append(l, r...), lok && rok
	case sparql.PathRepeat:
		return pathIRIs(v.P)
	default: // PathVar, PathNegated
		return nil, false
	}
}

// collectExpr walks an expression for nested groups (EXISTS) whose
// patterns also need gathering.
func collectExpr(e sparql.Expression, into *[]mask) error {
	var err error
	walkExpr(e, func(sub sparql.Expression) {
		if ex, ok := sub.(sparql.EExists); ok && err == nil {
			err = collectGroup(ex.Group, into)
		}
	})
	return err
}

// exprHasExists reports whether an expression contains an EXISTS /
// NOT EXISTS subpattern.
func exprHasExists(e sparql.Expression) bool {
	found := false
	walkExpr(e, func(sub sparql.Expression) {
		if _, ok := sub.(sparql.EExists); ok {
			found = true
		}
	})
	return found
}

// walkExpr visits every node of an expression tree.
func walkExpr(e sparql.Expression, visit func(sparql.Expression)) {
	if e == nil {
		return
	}
	visit(e)
	switch v := e.(type) {
	case sparql.EUn:
		walkExpr(v.E, visit)
	case sparql.EBin:
		walkExpr(v.L, visit)
		walkExpr(v.R, visit)
	case sparql.ECall:
		for _, a := range v.Args {
			walkExpr(a, visit)
		}
	case sparql.EAgg:
		walkExpr(v.Arg, visit)
	case sparql.EIn:
		walkExpr(v.E, visit)
		for _, a := range v.List {
			walkExpr(a, visit)
		}
	case sparql.ESubscript:
		walkExpr(v.Base, visit)
		for _, s := range v.Subs {
			walkExpr(s.Index, visit)
			walkExpr(s.Lo, visit)
			walkExpr(s.Hi, visit)
			walkExpr(s.Step, visit)
		}
	}
}

// dedupMasks removes masks covered by another mask in the set.
func dedupMasks(masks []mask) []mask {
	var out []mask
	for i, m := range masks {
		redundant := false
		for j, n := range masks {
			if i == j {
				continue
			}
			// Covered by a strictly-broader mask, or an identical mask
			// earlier in the list.
			if n.covers(m) && (!m.covers(n) || j < i) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, m)
		}
	}
	return out
}

// rowBufs and scratchSets recycle a gather's ID-triple buffers, one per
// leg, and its dataset (rdf.Graph.Reset): its results hold terms, not
// IDs, and scatter waits for every leg. A buffer over maxPooledRows goes.
var rowBufs = sync.Pool{New: func() any { return new([][]rdf.Triple) }}
var scratchSets = sync.Pool{New: func() any { return rdf.NewDataset() }}

const maxPooledRows = 1 << 16

// intern returns id or, where id is unbound and t is not, t's ID in g.
func intern(g *rdf.Graph, id rdf.ID, t rdf.Term) rdf.ID {
	if id == rdf.Unbound && t != nil {
		return g.Intern(t)
	}
	return id
}

// runGather executes a query on the gather path: scatter the masks,
// build a scratch graph from what the legs return, evaluate locally.
func (c *Coordinator) runGather(ctx context.Context, q *sparql.Query, lim engine.Limits, qs *qstat) (*engine.Results, error) {
	var masks []mask
	if err := collectMasks(q, &masks); err != nil {
		return nil, err
	}
	masks = dedupMasks(masks)

	ds := scratchSets.Get().(*rdf.Dataset)
	scratch := ds.Default

	// Shard scans run concurrently and intern their rows into the
	// scratch dictionary lock-free — a position the mask binds is
	// interned once per mask, not per row — each collecting its ID
	// triples in a buffer of its own. Blank labels are globally unique by
	// construction (the coordinator rewrites them at load routing), so
	// merging needs no renaming.
	legs := rowBufs.Get().(*[][]rdf.Triple)
	defer func() {
		scratch.Reset()
		scratchSets.Put(ds)
		for i, rows := range *legs {
			if cap(rows) > maxPooledRows {
				(*legs)[i] = nil
			}
		}
		rowBufs.Put(legs)
	}()
	if len(*legs) != len(c.shards) {
		*legs = make([][]rdf.Triple, len(c.shards))
	}
	err := c.scatter(ctx, func(ctx context.Context, i int, sh Shard) error {
		rows := (*legs)[i][:0]
		for _, m := range masks {
			if err := engine.ContextErr(ctx); err != nil {
				return err
			}
			qs.call()
			c.perShard[i].calls.Add(1)
			b := rdf.Triple{S: intern(scratch, 0, m.s), P: intern(scratch, 0, m.p), O: intern(scratch, 0, m.o)}
			var n int64
			err := sh.Scan(ctx, m.s, m.p, m.o, func(s, p, o rdf.Term) bool {
				n++
				rows = append(rows, rdf.Triple{S: intern(scratch, b.S, s), P: intern(scratch, b.P, p), O: intern(scratch, b.O, o)})
				return true
			})
			c.perShard[i].rows.Add(n)
			qs.addRows(n)
			if err != nil {
				return err
			}
		}
		(*legs)[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Once every leg is back, the scratch graph is laid out in one pass
	// over all their rows, gathered into the first leg's buffer.
	all := (*legs)[0]
	for _, rows := range (*legs)[1:] {
		all = append(all, rows...)
	}
	(*legs)[0] = all
	scratch.Build(all)

	// A fresh engine over the scratch dataset, sharing the node's
	// function registry (user-defined functions and aggregates).
	eng := engine.New(ds)
	eng.Funcs = c.node.Engine.Funcs
	return eng.QueryContext(ctx, q, lim)
}
