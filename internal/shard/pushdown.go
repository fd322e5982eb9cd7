package shard

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"scisparql/internal/array"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// Pushdown classification (see DESIGN.md "Distributed execution" for
// the full matrix). Subject-hash partitioning guarantees that all
// triples of one subject are colocated, so a query whose patterns all
// share a single subject — one pattern, or a star — evaluates
// correctly on each shard independently:
//
//   - plain star SELECTs: the answer is the union of per-shard rows
//     (DISTINCT re-deduplicated, LIMIT re-cut at the coordinator);
//   - ASK: the OR of the per-shard verdicts;
//   - COUNT/SUM/MIN/MAX aggregation (optionally GROUP BY plain
//     variables): each shard computes partials over its subjects and
//     the coordinator recombines them — counts and sums add, mins and
//     maxes compare;
//   - a ground subject routes to its one owner shard, any query shape.
//
// AVG, SAMPLE, GROUP_CONCAT and DISTINCT aggregates do not decompose
// into mergeable partials; HAVING, ORDER BY, OFFSET, subqueries,
// OPTIONAL/UNION/MINUS, property paths, EXISTS filters and named
// graphs all break the per-shard independence argument. Queries using
// any of them take the gather path instead.

// column kinds of a pushed-down aggregate projection.
const (
	colKey = iota // GROUP BY key column: equal across partials
	colCount
	colSum
	colMin
	colMax
)

// pushPlan is a classified pushdown execution: the query text to
// forward plus the merge recipe for the per-shard results.
type pushPlan struct {
	src     string
	form    sparql.Form
	subject rdf.Term // shared ground subject: route to its owner shard

	agg  bool  // aggregate merge (cols) vs row union
	cols []int // per-projection-column kind, when agg

	distinct bool
	limit    int // -1 = none
}

// classify decides whether a query can execute per-shard, returning
// the merge plan or nil for gather. src is the query's standalone
// text; "" (script-embedded) always gathers.
func classify(src string, q *sparql.Query) *pushPlan {
	if src == "" || q.Where == nil {
		return nil
	}
	if q.Form != sparql.FormSelect && q.Form != sparql.FormAsk {
		return nil
	}
	if len(q.From) > 0 || len(q.FromNamed) > 0 {
		return nil
	}

	// The WHERE clause must be a flat BGP (+ simple filters).
	var patterns []sparql.TriplePattern
	for _, el := range q.Where.Elems {
		switch v := el.(type) {
		case sparql.BGP:
			patterns = append(patterns, v.Triples...)
		case *sparql.BGP:
			patterns = append(patterns, v.Triples...)
		case sparql.Filter:
			if exprHasExists(v.Cond) {
				return nil
			}
		case *sparql.Filter:
			if exprHasExists(v.Cond) {
				return nil
			}
		default:
			return nil
		}
	}
	if len(patterns) == 0 {
		return nil
	}

	// Colocation: one pattern is trivially shard-local; several must
	// form a subject star. Property paths beyond a plain IRI (or a
	// predicate variable) can leave the subject's shard mid-path.
	for _, tp := range patterns {
		switch tp.Path.(type) {
		case sparql.PathIRI, sparql.PathVar:
		default:
			return nil
		}
	}
	if len(patterns) > 1 {
		s0 := patterns[0].S
		for _, tp := range patterns[1:] {
			if !sameSubject(s0, tp.S) {
				return nil
			}
		}
	}

	plan := &pushPlan{src: src, form: q.Form, subject: groundSubject(patterns), limit: -1}

	if q.Form == sparql.FormAsk {
		return plan
	}

	if len(q.Having) > 0 || len(q.OrderBy) > 0 || q.Offset > 0 {
		return nil
	}

	hasAgg := false
	for _, it := range q.Items {
		if _, ok := it.Expr.(sparql.EAgg); ok {
			hasAgg = true
		} else if it.Expr != nil {
			return nil // computed projections: gather
		}
	}

	if !hasAgg && len(q.GroupBy) == 0 {
		// Plain row union.
		plan.distinct = q.Distinct
		plan.limit = q.Limit
		return plan
	}

	// Aggregate merge: every column is either a GROUP BY key variable
	// or a mergeable aggregate.
	if q.Distinct || q.Star {
		return nil
	}
	grouped := map[string]bool{}
	for _, ge := range q.GroupBy {
		v, ok := ge.(sparql.EVar)
		if !ok {
			return nil
		}
		grouped[v.Name] = true
	}
	for _, it := range q.Items {
		agg, ok := it.Expr.(sparql.EAgg)
		if !ok {
			if it.Expr == nil && grouped[it.Var] {
				plan.cols = append(plan.cols, colKey)
				continue
			}
			return nil
		}
		if agg.Distinct {
			return nil
		}
		switch agg.Func {
		case "COUNT":
			plan.cols = append(plan.cols, colCount)
		case "SUM":
			plan.cols = append(plan.cols, colSum)
		case "MIN":
			plan.cols = append(plan.cols, colMin)
		case "MAX":
			plan.cols = append(plan.cols, colMax)
		default:
			return nil
		}
	}
	plan.agg = true
	return plan
}

// sameSubject reports whether two pattern subjects are the same
// variable or the same ground term.
func sameSubject(a, b sparql.Node) bool {
	if a.IsVar() || b.IsVar() {
		return a.Var == b.Var
	}
	if a.Term == nil || b.Term == nil {
		return false
	}
	return rdf.SameTerm(a.Term, b.Term)
}

// groundSubject returns the shared ground subject of a pattern set,
// or nil. Blank subjects return nil: a blank in a query is a
// variable, not an addressable node.
func groundSubject(patterns []sparql.TriplePattern) rdf.Term {
	s := patterns[0].S
	if s.IsVar() || s.Term == nil || s.Term.Kind() == rdf.KindBlank {
		return nil
	}
	return s.Term
}

// runPushdown executes a classified plan: single-owner passthrough or
// broadcast + merge.
func (c *Coordinator) runPushdown(ctx context.Context, plan *pushPlan, lim engine.Limits, qs *qstat) (*engine.Results, error) {
	if plan.subject != nil {
		i := c.part.Owner(plan.subject)
		qs.call()
		c.perShard[i].calls.Add(1)
		res, err := c.shards[i].Query(ctx, plan.src, lim)
		if err != nil {
			c.perShard[i].errors.Add(1)
			c.stats.errors.Add(1)
			return nil, wrapShardErr(c.shards[i].Name(), err)
		}
		c.perShard[i].rows.Add(int64(res.Len()))
		qs.addRows(int64(res.Len()))
		res.Form = plan.form
		return res, nil
	}

	partials := make([]*engine.Results, len(c.shards))
	err := c.scatter(ctx, func(ctx context.Context, i int, sh Shard) error {
		qs.call()
		c.perShard[i].calls.Add(1)
		res, err := sh.Query(ctx, plan.src, lim)
		if err != nil {
			return err
		}
		c.perShard[i].rows.Add(int64(res.Len()))
		qs.addRows(int64(res.Len()))
		partials[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergePartials(plan, partials, lim)
}

// mergePartials recombines per-shard results according to the plan.
func mergePartials(plan *pushPlan, partials []*engine.Results, lim engine.Limits) (*engine.Results, error) {
	out := &engine.Results{Form: plan.form}
	for _, p := range partials {
		if p != nil {
			out.Vars = p.Vars
			break
		}
	}

	if plan.form == sparql.FormAsk {
		for _, p := range partials {
			if p != nil && p.Bool {
				out.Bool = true
			}
		}
		return out, nil
	}

	if !plan.agg {
		seen := map[string]bool{}
		for _, p := range partials {
			if p == nil {
				continue
			}
			for _, row := range p.Rows {
				if plan.distinct {
					k := rowKey(row)
					if seen[k] {
						continue
					}
					seen[k] = true
				}
				out.Rows = append(out.Rows, row)
				if plan.limit >= 0 && len(out.Rows) >= plan.limit {
					return capRows(out, lim)
				}
			}
		}
		return capRows(out, lim)
	}

	// Aggregate merge: group per-shard partial rows by their key
	// columns and fold the aggregate columns.
	byKey := map[string][]rdf.Term{}
	var order []string
	for _, p := range partials {
		if p == nil {
			continue
		}
		for _, row := range p.Rows {
			k := partialKey(plan.cols, row)
			acc, ok := byKey[k]
			if !ok {
				cp := make([]rdf.Term, len(row))
				copy(cp, row)
				byKey[k] = cp
				order = append(order, k)
				continue
			}
			if err := foldPartial(plan.cols, acc, row); err != nil {
				return nil, err
			}
		}
	}
	sort.Strings(order)
	for _, k := range order {
		out.Rows = append(out.Rows, byKey[k])
	}
	return capRows(out, lim)
}

// capRows enforces the resolved row cap on the merged result — each
// shard obeyed it individually, but their union can exceed it.
func capRows(res *engine.Results, lim engine.Limits) (*engine.Results, error) {
	if lim.MaxResultRows > 0 && len(res.Rows) > lim.MaxResultRows {
		return nil, fmt.Errorf("%w: merged result exceeds %d rows", engine.ErrResourceLimit, lim.MaxResultRows)
	}
	return res, nil
}

// rowKey renders a row's canonical identity for DISTINCT merging.
func rowKey(row []rdf.Term) string {
	var sb strings.Builder
	for _, t := range row {
		if t != nil {
			sb.WriteString(t.Key())
		}
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// partialKey renders the key-column identity of one partial row.
func partialKey(cols []int, row []rdf.Term) string {
	var sb strings.Builder
	for i, kind := range cols {
		if kind != colKey || i >= len(row) {
			continue
		}
		if row[i] != nil {
			sb.WriteString(row[i].Key())
		}
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// addNumbers adds two scalars, staying integral when both are.
func addNumbers(a, b array.Number) array.Number {
	if a.T == array.Int && b.T == array.Int {
		return array.IntN(a.I + b.I)
	}
	return array.FloatN(a.Float() + b.Float())
}

// foldPartial merges one partial row into the accumulator row:
// counts and sums add, mins and maxes compare (SPARQL term order via
// engine.Compare). Unbound cells (empty per-shard groups) are the
// identity.
func foldPartial(cols []int, acc, row []rdf.Term) error {
	for i, kind := range cols {
		if kind == colKey || i >= len(row) {
			continue
		}
		v := row[i]
		if v == nil {
			continue
		}
		if acc[i] == nil {
			acc[i] = v
			continue
		}
		switch kind {
		case colCount, colSum:
			a, aok := rdf.Numeric(acc[i])
			b, bok := rdf.Numeric(v)
			if !aok || !bok {
				return fmt.Errorf("shard: non-numeric partial aggregate %v + %v", acc[i], v)
			}
			acc[i] = rdf.FromNumber(addNumbers(a, b))
		case colMin:
			cmp, err := engine.Compare(v, acc[i], false)
			if err != nil {
				return fmt.Errorf("shard: merging MIN partials: %w", err)
			}
			if cmp < 0 {
				acc[i] = v
			}
		case colMax:
			cmp, err := engine.Compare(v, acc[i], false)
			if err != nil {
				return fmt.Errorf("shard: merging MAX partials: %w", err)
			}
			if cmp > 0 {
				acc[i] = v
			}
		}
	}
	return nil
}
