package engine

import (
	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// Batch-native aggregation: when the whole WHERE clause vectorizes,
// every GROUP BY criterion is a plain variable, and every aggregate
// register is a standard COUNT/SUM/MIN/MAX/AVG/SAMPLE (or a user
// aggregate) over a plain variable, grouping runs directly over the ID
// columns — packed 4-byte ID keys into a hash table over the column
// slabs, numeric folding through the dictionary's ID→numeric cache —
// and each folded value is the dictionary's own term, read by ID. The
// steady-state per-row path does zero allocations (the key buffer and
// group states are reused; map lookups on string(keyBuf) do not
// allocate on hit).
//
// User aggregates get their group's values as a columnar []array.Number
// accumulated straight from the numeric cache and materialized as one
// array.Vector per group, so DEFINE AGGREGATE bodies (MAP/CONDENSE
// kernels) consume the slab without a per-row Binding bridge.

// vecAggregate is the batch-native implementation of
// aggregateSolutions' fold: it returns (groups, true, err) when it
// handled the query, or ok=false to fall back to the tuple fold. The
// fold shares aggState and finishGroups with the tuple fold, so the
// returned bindings are exactly what the tuple path would produce —
// GROUP BY variables plus "#aggN" registers, HAVING already applied,
// groups in first-encounter order.
func (e *Engine) vecAggregate(ctx *evalCtx, q *sparql.Query, initial Binding, specs []aggSpec) ([]Binding, bool, error) {
	if len(initial) != 0 || q.Where == nil {
		return nil, false, nil
	}
	pl := ctx.vecPlanFor(q.Where)
	if pl == nil || pl.busy || len(pl.rest) != 0 {
		return nil, false, nil
	}

	colOf := func(name string) int {
		for j, s := range pl.schema {
			if s == name {
				return j
			}
		}
		return -1
	}

	// GROUP BY criteria must be plain variables so the group key is
	// ID-resident.
	groupVars := make([]string, len(q.GroupBy))
	groupCols := make([]int, len(q.GroupBy))
	for i, ge := range q.GroupBy {
		ev, ok := ge.(sparql.EVar)
		if !ok {
			return nil, false, nil
		}
		groupVars[i] = ev.Name
		groupCols[i] = colOf(ev.Name)
	}

	// Lower each register to its argument's schema column (-1: never
	// bound); decline on anything whose fold the ID columns cannot
	// express (GROUP_CONCAT needs string values per row, expression
	// arguments need per-row evaluation).
	argCols := make([]int, len(specs))
	for i, sp := range specs {
		if sp.std != nil {
			switch sp.std.Func {
			case "COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE":
			default:
				return nil, false, nil
			}
			if sp.arg == nil {
				if sp.std.Func != "COUNT" {
					return nil, false, nil
				}
				continue
			}
		}
		ev, ok := sp.arg.(sparql.EVar)
		if !ok {
			return nil, false, nil
		}
		argCols[i] = colOf(ev.Name)
	}

	var groups []aggGroup
	var keys []rdf.ID // len(groupCols) IDs per group
	idx := map[string]int{}
	var keyBuf []byte

	err := pl.runWithBudget(ctx, -1, func(b *colbatch) error {
		for r := 0; r < b.n; r++ {
			keyBuf = keyBuf[:0]
			for _, gc := range groupCols {
				var id rdf.ID
				if gc >= 0 {
					id = b.cols[gc][r]
				}
				keyBuf = append(keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
			gi, ok := idx[string(keyBuf)]
			if !ok {
				gi = len(groups)
				for _, gc := range groupCols {
					var id rdf.ID
					if gc >= 0 {
						id = b.cols[gc][r]
					}
					keys = append(keys, id)
				}
				groups = append(groups, newAggGroup(nil, len(specs)))
				idx[string(keyBuf)] = gi
			}
			sts := groups[gi].states
			for i := range specs {
				sp := &specs[i]
				st := &sts[i]
				if sp.std != nil && sp.arg == nil { // COUNT(*)
					st.n++
					continue
				}
				var id rdf.ID
				if argCols[i] >= 0 {
					id = b.cols[argCols[i]][r]
				}
				if id == rdf.Unbound {
					continue // unbound/error arguments are ignored by aggregates
				}
				if sp.dist {
					if st.ids == nil {
						st.ids = make(map[rdf.ID]struct{})
					}
					if _, dup := st.ids[id]; dup {
						continue
					}
					st.ids[id] = struct{}{}
				}
				var n array.Number
				isNum := false
				if sp.num { // the numeric memo grows only for registers that fold numbers
					n, isNum = ctx.graph.NumericOf(id)
				}
				st.add(sp, ctx.graph.TermOf(id), n, isNum)
			}
		}
		return nil
	})
	if err != nil && err != errStop {
		return nil, true, err
	}

	// Only group keys decode to terms.
	for g := range groups {
		rep := Binding{}
		for i, gv := range groupVars {
			if id := keys[g*len(groupVars)+i]; id != rdf.Unbound {
				rep[gv] = ctx.graph.TermOf(id)
			}
		}
		groups[g].rep = rep
	}
	out, n := e.finishGroups(ctx, q, specs, groups)
	e.vecAggQueries.Add(1)
	e.vecAggGroups.Add(int64(n))
	if ctx.trace != nil {
		ctx.trace.vecAggGroups += int64(n)
	}
	return out, true, nil
}
