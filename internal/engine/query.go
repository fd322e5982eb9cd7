package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// Query executes a parsed query over the engine's dataset with no
// deadline or resource bounds.
func (e *Engine) Query(q *sparql.Query) (*Results, error) {
	return e.QueryContext(context.Background(), q, Limits{})
}

// QueryContext executes a parsed query under a context and per-query
// limits. Cancellation is cooperative: the binding-stream hot loops
// (triple matching, property-path expansion, aggregation, projection)
// and the graph's batched enumerations poll the context, so a
// cancelled or timed-out query stops within one batch and returns
// ErrQueryCancelled / ErrQueryTimeout. Panics anywhere inside
// execution (including foreign functions) are trapped and surface as
// ErrInternal with the stack logged.
func (e *Engine) QueryContext(ctx context.Context, q *sparql.Query, lim Limits) (*Results, error) {
	return e.queryCollect(ctx, q, lim, nil)
}

// QueryTraced executes a parsed query like QueryContext while collecting
// an execution trace — the engine half of EXPLAIN ANALYZE. The trace is
// returned even when the query fails (its Error field is set), so a
// timed-out query still reports where the time went. Tracing adds
// per-step counter shims and map lookups; use QueryContext on hot paths.
func (e *Engine) QueryTraced(ctx context.Context, q *sparql.Query, lim Limits) (*Results, *Trace, error) {
	tr := newTraceCollector()
	start := time.Now()
	res, err := e.queryCollect(ctx, q, lim, tr)
	return res, tr.finish(q, time.Since(start), res, err), err
}

func (e *Engine) queryCollect(ctx context.Context, q *sparql.Query, lim Limits, tr *traceCollector) (res *Results, err error) {
	defer trapPanic("query", &err)
	ctx, cancel := limitCtx(ctx, lim)
	defer cancel()
	if tr != nil {
		// Chunk retrievals under this context report into the trace.
		ctx = array.WithFetchStats(ctx, &tr.fetch)
	}
	gq := newQueryGuard(ctx, lim)
	if err := gq.checkCtx(); err != nil {
		return nil, err
	}
	if tr != nil {
		defer func() { tr.bindings = gq.bindings }()
	}
	ectx := &evalCtx{eng: e, guard: gq, trace: tr}
	ectx.graph = ectx.pin(e.activeGraph(q))
	if len(q.FromNamed) > 0 {
		ectx.named = make(map[rdf.IRI]bool, len(q.FromNamed))
		for _, n := range q.FromNamed {
			ectx.named[n] = true
		}
	}
	switch q.Form {
	case sparql.FormSelect:
		res, err = e.execSelect(ectx, q, Binding{})
	case sparql.FormAsk:
		res, err = e.execAsk(ectx, q)
	case sparql.FormConstruct:
		res, err = e.execConstruct(ectx, q)
	case sparql.FormDescribe:
		res, err = e.execDescribe(ectx, q)
	default:
		return nil, fmt.Errorf("engine: unknown query form")
	}
	if err != nil {
		return nil, err
	}
	return capResultRows(res, lim)
}

// limitCtx applies Limits.Timeout on top of the caller's context; the
// earlier deadline wins.
func limitCtx(ctx context.Context, lim Limits) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if lim.Timeout > 0 {
		return context.WithTimeout(ctx, lim.Timeout)
	}
	return ctx, func() {}
}

// capResultRows enforces the result-row budget at the query boundary:
// exceeding it is an error, not a silent truncation, so a client can
// tell "the data has N rows" apart from "the query was cut off". It is
// the authoritative check; execSelect additionally fails an overrun
// incrementally whenever no later pipeline stage could shrink the
// output back under the budget.
func capResultRows(res *Results, lim Limits) (*Results, error) {
	if lim.MaxResultRows > 0 && res != nil && len(res.Rows) > lim.MaxResultRows {
		return nil, errResultRows(lim.MaxResultRows)
	}
	return res, nil
}

// QueryString parses and executes a query.
func (e *Engine) QueryString(src string) (*Results, error) {
	q, err := sparql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return e.Query(q)
}

// QueryWithContext executes a SELECT query with variables pre-bound —
// the execution path of parameterized views and prepared statements —
// under a context and per-query limits.
func (e *Engine) QueryWithContext(ctx context.Context, q *sparql.Query, initial Binding, lim Limits) (res *Results, err error) {
	if q.Form != sparql.FormSelect {
		return nil, fmt.Errorf("engine: parameterized execution requires a SELECT query")
	}
	defer trapPanic("query", &err)
	ctx, cancel := limitCtx(ctx, lim)
	defer cancel()
	gq := newQueryGuard(ctx, lim)
	if err := gq.checkCtx(); err != nil {
		return nil, err
	}
	ectx := &evalCtx{eng: e, guard: gq}
	ectx.graph = ectx.pin(e.activeGraph(q))
	if len(q.FromNamed) > 0 {
		ectx.named = make(map[rdf.IRI]bool, len(q.FromNamed))
		for _, n := range q.FromNamed {
			ectx.named[n] = true
		}
	}
	res, err = e.execSelect(ectx, q, initial)
	if err != nil {
		return nil, err
	}
	return capResultRows(res, lim)
}

// activeGraph resolves the FROM clause: no FROM uses the default
// graph; one FROM uses that named graph; several FROMs build a merged
// view (materialized — acceptable at the metadata scale SSDM's graphs
// live at, since arrays are not copied, only referenced).
func (e *Engine) activeGraph(q *sparql.Query) *rdf.Graph {
	if len(q.From) == 0 {
		return e.Dataset.Default
	}
	if len(q.From) == 1 {
		if g := e.Dataset.Named(q.From[0], false); g != nil {
			return g
		}
		return rdf.NewGraph()
	}
	merged := rdf.NewGraph()
	tx := merged.Begin()
	for _, name := range q.From {
		if g := e.Dataset.Named(name, false); g != nil {
			g.Triples(func(s, p, o rdf.Term) bool {
				tx.Add(s, p, o)
				return true
			})
		}
	}
	tx.Commit()
	return merged
}

// whereSolutions enumerates the WHERE solutions (a single empty
// binding when the query has no WHERE clause). budget, when >= 0, is
// the number of solutions the caller will consume before stopping (the
// LIMIT pushdown bound): the vectorized path clamps its batch size to
// it so a small LIMIT over a wide fallback bridge does not decode —
// and charge the binding budget for — a full batch of rows nobody
// reads.
func (c *evalCtx) whereSolutions(q *sparql.Query, initial Binding, budget int, yield func(Binding) error) error {
	if q.Where == nil {
		return yield(initial)
	}
	// Hybrid vectorized path: when the group has a vectorizable prefix
	// and there are no pre-bound variables, enumerate ID batches and
	// bridge each row into the remaining tuple steps. vecWhere declines
	// (handled == false) when batch mode is off or nothing vectorizes.
	if len(initial) == 0 {
		if handled, err := c.vecWhere(q.Where, budget, yield); handled {
			return err
		}
	}
	return c.evalGroup(q.Where, initial, yield)
}

// execSelect runs the SELECT pipeline: WHERE -> grouping/aggregation
// -> HAVING -> projection -> ORDER BY -> DISTINCT -> OFFSET/LIMIT
// (§3.5, §3.7).
func (e *Engine) execSelect(ctx *evalCtx, q *sparql.Query, initial Binding) (*Results, error) {
	// Incremental result-row cap: once the output can no longer shrink
	// back under the budget (no DISTINCT to dedupe, no LIMIT at or
	// below the cap to trim), an overrun is fatal the moment it occurs
	// — fail then, instead of materializing the full result set first
	// and checking post-hoc. HAVING is handled at each check site: the
	// budget only counts solutions that survived it.
	rowCap := ctx.guard.resultRowCap()
	earlyCap := -1
	if rowCap > 0 && !q.Distinct && (q.Limit < 0 || q.Limit > rowCap) {
		earlyCap = rowCap + q.Offset
	}

	grouped := len(q.GroupBy) > 0
	if !grouped {
		for _, it := range q.Items {
			if it.Expr != nil && e.hasAggregate(it.Expr) {
				grouped = true
				break
			}
		}
		for _, h := range q.Having {
			if e.hasAggregate(h) {
				grouped = true
			}
		}
	}

	// Fully-columnar fast path: when the whole WHERE clause vectorizes
	// and the projection is plain variables, solutions never
	// materialize as Bindings — DISTINCT/OFFSET/LIMIT run over ID rows
	// and only surviving rows decode to terms. vecSelect declines
	// (ok == false) whenever any pipeline stage below would differ.
	if !grouped && len(q.Having) == 0 && len(initial) == 0 && q.Where != nil {
		if res, ok, err := ctx.vecSelect(q, rowCap, earlyCap); ok {
			return res, err
		}
	}

	var solutions []Binding
	if grouped {
		// Work on a copy: aggregate rewriting must not mutate the parsed
		// query, which may be re-executed (functional views, prepared
		// statements).
		qc := *q
		qc.Items = append([]sparql.SelectItem(nil), q.Items...)
		qc.Having = append([]sparql.Expression(nil), q.Having...)
		qc.OrderBy = append([]sparql.OrderCond(nil), q.OrderBy...)
		q = &qc
		stop := ctx.trace.startPhase(phaseAgg)
		var err error
		solutions, err = e.aggregateSolutions(ctx, q, initial)
		stop()
		if err != nil {
			return nil, err
		}
	} else {
		// LIMIT pushdown: without ordering, grouping or DISTINCT, the
		// solution stream can stop as soon as OFFSET+LIMIT solutions
		// exist.
		stopAt := -1
		if q.Limit >= 0 && len(q.OrderBy) == 0 && !q.Distinct && len(q.Having) == 0 {
			stopAt = q.Offset + q.Limit
		}
		stopWhere := ctx.trace.startPhase(phaseWhere)
		err := ctx.whereSolutions(q, initial, stopAt, func(b Binding) error {
			solutions = append(solutions, b)
			if earlyCap >= 0 && len(q.Having) == 0 && len(solutions) > earlyCap {
				return errResultRows(rowCap)
			}
			if stopAt >= 0 && len(solutions) >= stopAt {
				return errStop
			}
			return nil
		})
		stopWhere()
		if err != nil && err != errStop {
			return nil, err
		}
		// Ungrouped HAVING behaves as a final filter.
		for _, h := range q.Having {
			kept := solutions[:0]
			for _, b := range solutions {
				if ok, err := ctx.evalBool(h, b); err == nil && ok {
					kept = append(kept, b)
				}
			}
			solutions = kept
		}
	}

	// Projection list.
	var vars []string
	var exprs []sparql.Expression // nil = plain var copy
	if q.Star || len(q.Items) == 0 {
		seen := map[string]bool{}
		for _, b := range solutions {
			for v := range b {
				if !seen[v] && !strings.Contains(v, ":") && !strings.HasPrefix(v, "#") {
					seen[v] = true
					vars = append(vars, v)
				}
			}
		}
		sort.Strings(vars)
		exprs = make([]sparql.Expression, len(vars))
	} else {
		for _, it := range q.Items {
			vars = append(vars, it.Var)
			exprs = append(exprs, it.Expr)
		}
	}

	stopProj := ctx.trace.startPhase(phaseProj)
	// Batched APR (§6.2.4): when projection expressions dereference
	// proxied arrays, gather the chunks every solution will touch and
	// resolve each proxy's bag in one back-end interaction before
	// evaluating. Without this, scattered element accesses degenerate to
	// one retrieval per element.
	batch := false
	for _, e := range exprs {
		if containsSubscript(e) {
			batch = true
			break
		}
	}
	if batch {
		pending := map[*array.Proxy][]int{}
		for _, b := range solutions {
			for _, e := range exprs {
				ctx.collectSubscriptChunks(e, b, pending)
			}
		}
		for p, chunks := range pending {
			if err := p.PrefetchChunksCtx(ctx.matchCtx(), chunks); err != nil {
				return nil, err
			}
		}
	}

	// Evaluate projections, keeping the full binding for ORDER BY.
	type outRow struct {
		cells []rdf.Term
		bind  Binding
	}
	rows := make([]outRow, 0, len(solutions))
	for _, b := range solutions {
		if err := ctx.guard.tick(); err != nil {
			return nil, err
		}
		cells := make([]rdf.Term, len(vars))
		extended := b
		cloned := false
		for i, name := range vars {
			if exprs[i] == nil {
				cells[i] = b[name]
				continue
			}
			v, err := ctx.eval(exprs[i], b)
			if err != nil {
				if _, isExpr := err.(*exprError); !isExpr {
					return nil, err
				}
				v = nil // expression error -> unbound (§3.6)
			}
			cells[i] = v
			if v != nil {
				if !cloned {
					extended = extended.clone()
					cloned = true
				}
				extended[name] = v
			}
		}
		rows = append(rows, outRow{cells: cells, bind: extended})
		// HAVING has been applied on both paths by now, so every row
		// built here reaches the output (modulo DISTINCT/LIMIT, which
		// disable earlyCap).
		if earlyCap >= 0 && len(rows) > earlyCap {
			return nil, errResultRows(rowCap)
		}
	}
	stopProj()

	// ORDER BY over the extended bindings (aliases visible).
	if len(q.OrderBy) > 0 {
		stopSort := ctx.trace.startPhase(phaseSort)
		key := func(x sparql.Expression, b Binding) rdf.Term {
			if v, err := ctx.eval(x, b); err == nil {
				return v
			}
			return nil
		}
		sort.SliceStable(rows, func(i, j int) bool {
			for _, oc := range q.OrderBy {
				if c := orderCmp(key(oc.Expr, rows[i].bind), key(oc.Expr, rows[j].bind), oc.Desc); c != 0 {
					return c < 0
				}
			}
			return false
		})
		stopSort()
	}

	res := &Results{Vars: vars, Form: sparql.FormSelect}
	seen := map[string]bool{}
	for _, r := range rows {
		if q.Distinct {
			key := rowKey(r.cells)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		res.Rows = append(res.Rows, r.cells)
	}
	// OFFSET / LIMIT.
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

func rowKey(cells []rdf.Term) string {
	var sb strings.Builder
	for _, c := range cells {
		if c == nil {
			sb.WriteString("\x00U")
		} else {
			sb.WriteString(c.Key())
		}
		sb.WriteByte('\x01')
	}
	return sb.String()
}

func (e *Engine) execAsk(ctx *evalCtx, q *sparql.Query) (*Results, error) {
	found := false
	stop := ctx.trace.startPhase(phaseWhere)
	err := ctx.whereSolutions(q, Binding{}, 1, func(Binding) error {
		found = true
		return errStop
	})
	stop()
	if err != nil && err != errStop {
		return nil, err
	}
	return &Results{Form: sparql.FormAsk, Bool: found}, nil
}

func (e *Engine) execConstruct(ctx *evalCtx, q *sparql.Query) (*Results, error) {
	out := rdf.NewGraph()
	tx := out.Begin()
	stop := ctx.trace.startPhase(phaseWhere)
	err := ctx.whereSolutions(q, Binding{}, -1, func(b Binding) error {
		instantiateTemplate(out, tx, q.ConstructTemplate, b)
		return nil
	})
	stop()
	tx.Commit()
	if err != nil && err != errStop {
		return nil, err
	}
	return &Results{Form: sparql.FormConstruct, Graph: out}, nil
}

// instantiateTemplate stages the template's triples under a solution
// in tx, a transaction on g; template blank nodes become fresh nodes
// per solution, and triples with unbound components are skipped.
func instantiateTemplate(g *rdf.Graph, tx *rdf.Tx, tpl []sparql.TriplePattern, b Binding) {
	blanks := map[string]rdf.Blank{}
	resolve := func(n sparql.Node) rdf.Term {
		if n.IsVar() {
			return b[n.Var]
		}
		if bl, ok := n.Term.(rdf.Blank); ok {
			fresh, ok2 := blanks[string(bl)]
			if !ok2 {
				fresh = g.NewBlank()
				blanks[string(bl)] = fresh
			}
			return fresh
		}
		return n.Term
	}
	for _, tp := range tpl {
		s := resolve(tp.S)
		o := resolve(tp.O)
		var p rdf.Term
		switch pv := tp.Path.(type) {
		case sparql.PathIRI:
			p = pv.IRI
		case sparql.PathVar:
			p = b[pv.Name]
		}
		if s == nil || p == nil || o == nil {
			continue
		}
		if pi, ok := p.(rdf.IRI); ok {
			tx.Add(s, pi, o)
		}
	}
}

func (e *Engine) execDescribe(ctx *evalCtx, q *sparql.Query) (*Results, error) {
	out := rdf.NewGraph()
	targets := map[string]rdf.Term{}
	for _, de := range q.DescribeTerms {
		switch v := de.(type) {
		case sparql.ELit:
			targets[v.Term.Key()] = v.Term
		case sparql.EVar:
			err := ctx.whereSolutions(q, Binding{}, -1, func(b Binding) error {
				if t, ok := b[v.Name]; ok {
					targets[t.Key()] = t
				}
				return nil
			})
			if err != nil && err != errStop {
				return nil, err
			}
		}
	}
	tx := out.Begin()
	for _, t := range targets {
		ctx.graph.MatchTerms(t, nil, nil, func(s, p, o rdf.Term) bool {
			tx.Add(s, p, o)
			return true
		})
	}
	tx.Commit()
	return &Results{Form: sparql.FormDescribe, Graph: out}, nil
}

// --- aggregation (§3.5) ---

// hasAggregate extends sparql.HasAggregate with user-defined
// aggregates (DEFINE AGGREGATE names applied as calls).
func (e *Engine) hasAggregate(x sparql.Expression) bool {
	if sparql.HasAggregate(x) {
		return true
	}
	found := false
	var walk func(sparql.Expression)
	walk = func(ex sparql.Expression) {
		if found || ex == nil {
			return
		}
		switch v := ex.(type) {
		case sparql.ECall:
			if _, ok := e.Funcs.LookupAggregate(v.Name); ok {
				found = true
				return
			}
			for _, a := range v.Args {
				walk(a)
			}
		case sparql.EBin:
			walk(v.L)
			walk(v.R)
		case sparql.EUn:
			walk(v.E)
		case sparql.EIn:
			walk(v.E)
			for _, a := range v.List {
				walk(a)
			}
		case sparql.ESubscript:
			walk(v.Base)
		}
	}
	walk(x)
	return found
}

// aggSpec is one aggregate register discovered in the query.
type aggSpec struct {
	std  *sparql.EAgg
	user *UserAggregate
	arg  sparql.Expression
	dist bool
	num  bool // folds numbers: SUM, AVG, MIN, MAX and user aggregates
	sep  string
}

// aggState accumulates one register within one group, on either fold.
// The tuple fold dedups DISTINCT arguments on term keys (seen), the
// batch fold on IDs (ids: ID equality is term-key equality).
type aggState struct {
	n      int64
	sum    array.AggState
	sample rdf.Term
	concat []string
	seen   map[string]bool
	ids    map[rdf.ID]struct{}
	values []array.Number // user aggregates
	errors bool
}

// add folds one argument value that DISTINCT let through; when sp.num,
// num and isNum are its numeric reading.
func (st *aggState) add(sp *aggSpec, v rdf.Term, num array.Number, isNum bool) {
	st.n++
	if st.sample == nil {
		st.sample = v
	}
	switch {
	case sp.user != nil:
		if isNum {
			st.values = append(st.values, num)
		}
	case sp.num:
		if isNum {
			st.sum.Add(num)
		} else {
			st.errors = true
		}
	case sp.std.Func == "GROUP_CONCAT":
		if s, ok := v.(rdf.String); ok {
			st.concat = append(st.concat, s.Val)
		} else {
			st.concat = append(st.concat, strings.Trim(v.String(), `"`))
		}
	}
}

// aggGroup is one group of a fold: its GROUP BY variables' values and
// one state per register.
type aggGroup struct {
	rep    Binding
	states []aggState
}

func newAggGroup(rep Binding, nSpecs int) aggGroup {
	gr := aggGroup{rep: rep, states: make([]aggState, nSpecs)}
	for i := range gr.states {
		gr.states[i].sum = *array.NewAggState()
	}
	return gr
}

// rewriteAggs replaces aggregate subtrees with references to register
// variables ("#aggN"), returning the rewritten expression.
func (e *Engine) rewriteAggs(x sparql.Expression, specs *[]aggSpec) sparql.Expression {
	switch v := x.(type) {
	case sparql.EAgg:
		idx := len(*specs)
		sp := aggSpec{std: &v, arg: v.Arg, dist: v.Distinct, sep: v.Separator}
		switch v.Func {
		case "SUM", "AVG", "MIN", "MAX":
			sp.num = true
		}
		*specs = append(*specs, sp)
		return sparql.EVar{Name: fmt.Sprintf("#agg%d", idx)}
	case sparql.ECall:
		if ua, ok := e.Funcs.LookupAggregate(v.Name); ok && len(v.Args) == 1 {
			idx := len(*specs)
			*specs = append(*specs, aggSpec{user: ua, arg: v.Args[0], num: true})
			return sparql.EVar{Name: fmt.Sprintf("#agg%d", idx)}
		}
		args := make([]sparql.Expression, len(v.Args))
		for i, a := range v.Args {
			args[i] = e.rewriteAggs(a, specs)
		}
		return sparql.ECall{Name: v.Name, Args: args}
	case sparql.EBin:
		return sparql.EBin{Op: v.Op, L: e.rewriteAggs(v.L, specs), R: e.rewriteAggs(v.R, specs)}
	case sparql.EUn:
		return sparql.EUn{Op: v.Op, E: e.rewriteAggs(v.E, specs)}
	case sparql.EIn:
		out := sparql.EIn{Not: v.Not, E: e.rewriteAggs(v.E, specs)}
		for _, a := range v.List {
			out.List = append(out.List, e.rewriteAggs(a, specs))
		}
		return out
	case sparql.ESubscript:
		out := sparql.ESubscript{Base: e.rewriteAggs(v.Base, specs)}
		out.Subs = v.Subs
		return out
	default:
		return x
	}
}

// aggregateSolutions evaluates WHERE, groups solutions, computes
// aggregate registers and returns one binding per group carrying the
// GROUP BY variables plus register values; q.Items and q.Having are
// rewritten in place to reference the registers.
func (e *Engine) aggregateSolutions(ctx *evalCtx, q *sparql.Query, initial Binding) ([]Binding, error) {
	var specs []aggSpec
	for i := range q.Items {
		if q.Items[i].Expr != nil {
			q.Items[i].Expr = e.rewriteAggs(q.Items[i].Expr, &specs)
		}
	}
	for i := range q.Having {
		q.Having[i] = e.rewriteAggs(q.Having[i], &specs)
	}
	for i := range q.OrderBy {
		q.OrderBy[i].Expr = e.rewriteAggs(q.OrderBy[i].Expr, &specs)
	}

	// Batch-native fast path: group and fold directly over the ID
	// columns when the WHERE clause fully vectorizes and every GROUP BY
	// criterion / aggregate argument is a plain variable (vecagg.go).
	if out, ok, err := e.vecAggregate(ctx, q, initial, specs); ok {
		return out, err
	}

	var groups []aggGroup
	idx := map[string]int{}
	err := ctx.whereSolutions(q, initial, -1, func(b Binding) error {
		// Cancellation check per folded solution: aggregation consumes
		// the full solution stream, so it must stop promptly too.
		if err := ctx.guard.tick(); err != nil {
			return err
		}
		// Group key.
		var kb strings.Builder
		keyVals := make([]rdf.Term, len(q.GroupBy))
		for i, ge := range q.GroupBy {
			v, err := ctx.eval(ge, b)
			if err != nil {
				v = nil
			}
			keyVals[i] = v
			if v == nil {
				kb.WriteString("\x00U")
			} else {
				kb.WriteString(v.Key())
			}
			kb.WriteByte('\x01')
		}
		key := kb.String()
		gi, ok := idx[key]
		if !ok {
			rep := Binding{}
			for i, ge := range q.GroupBy {
				if ev, isVar := ge.(sparql.EVar); isVar && keyVals[i] != nil {
					rep[ev.Name] = keyVals[i]
				}
			}
			gi = len(groups)
			groups = append(groups, newAggGroup(rep, len(specs)))
			idx[key] = gi
		}
		// Fold each register.
		for i := range specs {
			sp := &specs[i]
			st := &groups[gi].states[i]
			if sp.std != nil && sp.arg == nil { // COUNT(*)
				st.n++
				continue
			}
			v, err := ctx.eval(sp.arg, b)
			if err != nil || v == nil {
				continue // per SPARQL, errors are ignored by aggregates
			}
			if sp.dist {
				if st.seen == nil {
					st.seen = map[string]bool{}
				}
				if st.seen[v.Key()] {
					continue
				}
				st.seen[v.Key()] = true
			}
			n, isNum := rdf.Numeric(v)
			st.add(sp, v, n, isNum)
		}
		return nil
	})
	if err != nil && err != errStop {
		return nil, err
	}
	out, _ := e.finishGroups(ctx, q, specs, groups)
	return out, nil
}

// finishGroups ends both folds. With aggregates but no GROUP BY and no
// solutions, SPARQL yields a single group over the empty solution set.
// Each register's value is bound to its "#aggN" variable (an error
// leaves it unbound), then HAVING (§3.5) keeps or drops the group. It
// returns the kept groups' bindings, in first-encounter order, and how
// many groups there were.
func (e *Engine) finishGroups(ctx *evalCtx, q *sparql.Query, specs []aggSpec, groups []aggGroup) ([]Binding, int) {
	if len(groups) == 0 && len(q.GroupBy) == 0 {
		groups = append(groups, newAggGroup(Binding{}, len(specs)))
	}
	var out []Binding
	for g := range groups {
		b := groups[g].rep
		for i := range specs {
			if v, err := e.finishAgg(ctx, &specs[i], &groups[g].states[i]); err == nil {
				b[fmt.Sprintf("#agg%d", i)] = v
			}
		}
		keep := true
		for _, h := range q.Having {
			if ok, err := ctx.evalBool(h, b); err != nil || !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, b)
		}
	}
	return out, len(groups)
}

func (e *Engine) finishAgg(ctx *evalCtx, sp *aggSpec, st *aggState) (rdf.Term, error) {
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
	switch sp.std.Func {
	case "COUNT":
		return rdf.Integer(st.n), nil
	case "SAMPLE":
		if st.sample == nil {
			return nil, errf("empty group")
		}
		return st.sample, nil
	case "GROUP_CONCAT":
		sep := sp.sep
		if sep == "" {
			sep = " "
		}
		return rdf.String{Val: strings.Join(st.concat, sep)}, nil
	case "SUM", "AVG", "MIN", "MAX":
		if st.errors {
			return nil, errf("non-numeric value in %s", sp.std.Func)
		}
		var op array.AggOp
		switch sp.std.Func {
		case "SUM":
			op = array.AggSum
		case "AVG":
			op = array.AggAvg
		case "MIN":
			op = array.AggMin
		case "MAX":
			op = array.AggMax
		}
		if sp.std.Func == "SUM" && st.sum.Count == 0 {
			return rdf.Integer(0), nil
		}
		n, err := st.sum.Result(op)
		if err != nil {
			return nil, errf("%v", err)
		}
		return rdf.FromNumber(n), nil
	default:
		return nil, errf("unknown aggregate %s", sp.std.Func)
	}
}
