package engine

import (
	"fmt"

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
// and only group keys and finalized values decode to terms. The
// steady-state per-row path does zero allocations (the key buffer and
// group states are reused; map lookups on string(keyBuf) do not
// allocate on hit).
//
// User aggregates get their group's values as a columnar []array.Number
// accumulated straight from the numeric cache and materialized as one
// array.Vector per group, so DEFINE AGGREGATE bodies (MAP/CONDENSE
// kernels) consume the slab without a per-row Binding bridge.

// vecAggSpec is one aggregate register lowered onto the batch plan.
type vecAggSpec struct {
	fn        string // COUNT/SUM/AVG/MIN/MAX/SAMPLE; "" for user aggregates
	user      *UserAggregate
	col       int // schema column of the argument variable; -1 = never bound
	countStar bool
	dist      bool
}

// vecAggState accumulates one register within one group. It mirrors
// aggState with IDs in place of terms: DISTINCT dedups on IDs (ID
// equality is term-key equality) and SAMPLE holds the first ID.
type vecAggState struct {
	n      int64
	sum    array.AggState
	sample rdf.ID
	seen   map[rdf.ID]struct{}
	values []array.Number // user aggregates
	errors bool
}

// vecAggregate is the batch-native implementation of
// aggregateSolutions' fold: it returns (groups, true, err) when it
// handled the query, or ok=false to fall back to the tuple fold. The
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

	// Lower each register; decline on anything whose fold the ID columns
	// cannot express (GROUP_CONCAT needs string values per row,
	// expression arguments need per-row evaluation).
	vspecs := make([]vecAggSpec, len(specs))
	for i, sp := range specs {
		vs := vecAggSpec{user: sp.user, dist: sp.dist, col: -1}
		if sp.user != nil {
			ev, ok := sp.arg.(sparql.EVar)
			if !ok {
				return nil, false, nil
			}
			vs.col = colOf(ev.Name)
		} else {
			switch sp.std.Func {
			case "COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE":
				vs.fn = sp.std.Func
			default:
				return nil, false, nil
			}
			if sp.arg == nil {
				if sp.std.Func != "COUNT" {
					return nil, false, nil
				}
				vs.countStar = true
			} else {
				ev, ok := sp.arg.(sparql.EVar)
				if !ok {
					return nil, false, nil
				}
				vs.col = colOf(ev.Name)
			}
		}
		vspecs[i] = vs
	}

	type vecAggGroup struct {
		keys   []rdf.ID
		states []vecAggState
	}
	var groups []vecAggGroup
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
				ng := vecAggGroup{keys: make([]rdf.ID, len(groupCols)), states: make([]vecAggState, len(vspecs))}
				for i, gc := range groupCols {
					if gc >= 0 {
						ng.keys[i] = b.cols[gc][r]
					}
				}
				for i := range ng.states {
					ng.states[i].sum = *array.NewAggState()
				}
				groups = append(groups, ng)
				idx[string(keyBuf)] = gi
			}
			sts := groups[gi].states
			for i := range vspecs {
				sp := &vspecs[i]
				st := &sts[i]
				if sp.countStar {
					st.n++
					continue
				}
				var id rdf.ID
				if sp.col >= 0 {
					id = b.cols[sp.col][r]
				}
				if id == rdf.Unbound {
					continue // unbound/error arguments are ignored by aggregates
				}
				if sp.dist {
					if st.seen == nil {
						st.seen = make(map[rdf.ID]struct{})
					}
					if _, dup := st.seen[id]; dup {
						continue
					}
					st.seen[id] = struct{}{}
				}
				st.n++
				if st.sample == rdf.Unbound {
					st.sample = id
				}
				if sp.user != nil {
					if n, ok := ctx.graph.NumericOf(id); ok {
						st.values = append(st.values, n)
					}
					continue
				}
				switch sp.fn {
				case "SUM", "AVG", "MIN", "MAX":
					if n, ok := ctx.graph.NumericOf(id); ok {
						st.sum.Add(n)
					} else {
						st.errors = true
					}
				}
			}
		}
		return nil
	})
	if err != nil && err != errStop {
		return nil, true, err
	}

	// With aggregates but no GROUP BY and no solutions, SPARQL yields a
	// single group over the empty solution set.
	if len(groups) == 0 && len(q.GroupBy) == 0 {
		ng := vecAggGroup{keys: make([]rdf.ID, 0), states: make([]vecAggState, len(vspecs))}
		for i := range ng.states {
			ng.states[i].sum = *array.NewAggState()
		}
		groups = append(groups, ng)
	}

	e.vecAggQueries.Add(1)
	e.vecAggGroups.Add(int64(len(groups)))
	if ctx.trace != nil {
		ctx.trace.vecAggGroups += int64(len(groups))
	}

	var out []Binding
	for g := range groups {
		gr := &groups[g]
		b := Binding{}
		for i, gv := range groupVars {
			if id := gr.keys[i]; id != rdf.Unbound {
				b[gv] = ctx.graph.TermOf(id)
			}
		}
		for i := range vspecs {
			v, err := e.finishVecAgg(ctx, &vspecs[i], &gr.states[i])
			if err != nil {
				continue // register left unbound
			}
			b[fmt.Sprintf("#agg%d", i)] = v
		}
		// HAVING (§3.5).
		keep := true
		for _, h := range q.Having {
			ok, err := ctx.evalBool(h, b)
			if err != nil || !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, b)
		}
	}
	return out, true, nil
}

// finishVecAgg extracts one register's value, mirroring finishAgg with
// decode deferred to this point: only SAMPLE's winning ID and the
// numeric fold results materialize as terms.
func (e *Engine) finishVecAgg(ctx *evalCtx, sp *vecAggSpec, st *vecAggState) (rdf.Term, error) {
	if sp.user != nil {
		if len(st.values) == 0 {
			return nil, errf("empty group for user aggregate")
		}
		vec, err := array.Vector(st.values...)
		if err != nil {
			return nil, errf("%v", err)
		}
		child, err := ctx.child()
		if err != nil {
			return nil, err
		}
		return child.eval(sp.user.Expr, Binding{sp.user.Param: rdf.NewArray(vec)})
	}
	switch sp.fn {
	case "COUNT":
		return rdf.Integer(st.n), nil
	case "SAMPLE":
		if st.sample == rdf.Unbound {
			return nil, errf("empty group")
		}
		return ctx.graph.TermOf(st.sample), nil
	case "SUM", "AVG", "MIN", "MAX":
		if st.errors {
			return nil, errf("non-numeric value in %s", sp.fn)
		}
		var op array.AggOp
		switch sp.fn {
		case "SUM":
			op = array.AggSum
		case "AVG":
			op = array.AggAvg
		case "MIN":
			op = array.AggMin
		case "MAX":
			op = array.AggMax
		}
		if sp.fn == "SUM" && st.sum.Count == 0 {
			return rdf.Integer(0), nil
		}
		n, err := st.sum.Result(op)
		if err != nil {
			return nil, errf("%v", err)
		}
		return rdf.FromNumber(n), nil
	default:
		return nil, errf("unknown aggregate %s", sp.fn)
	}
}
