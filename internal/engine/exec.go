package engine

import (
	"errors"
	"sort"

	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// errStop aborts an enumeration early (EXISTS, LIMIT).
var errStop = errors.New("stop enumeration")

// varOf returns the variable name a pattern node stands for. Blank
// nodes in query patterns act as non-projectable variables (their
// names contain "_:" which user variables cannot).
func varOf(n sparql.Node) (string, bool) {
	if n.IsVar() {
		return n.Var, true
	}
	if b, ok := n.Term.(rdf.Blank); ok {
		return "_:" + string(b), true
	}
	return "", false
}

// step is one executable element of a group graph pattern.
type step interface {
	run(c *evalCtx, b Binding, yield func(Binding) error) error
	// certainVars are variables guaranteed bound in every solution the
	// step emits (used for filter pushdown).
	certainVars(into map[string]bool)
}

// evalGroup evaluates a group graph pattern, extending the input
// binding; it compiles the group into a step sequence with filters
// pushed to the earliest sound position (§5.4, query rewriting) and
// triple patterns cost-ordered per BGP.
//
// Compilation happens once per (group, graph) within a query: the
// step sequence is memoized in the evalCtx plan cache, so groups that
// are re-entered per input binding (OPTIONAL bodies, EXISTS
// subpatterns, nested groups, subqueries) do not recompile — and their
// uncorrelated step state (MINUS and subquery materializations)
// survives across invocations instead of being rebuilt for every
// outer binding.
func (c *evalCtx) evalGroup(g *sparql.Group, in Binding, yield func(Binding) error) error {
	return runSteps(c, c.compiledSteps(g), 0, in, yield)
}

// planKey identifies one compiled group: step state (MINUS and
// subquery caches) is only valid for the graph it was computed
// against, so the graph is part of the key.
type planKey struct {
	group *sparql.Group
	graph *rdf.Graph
}

// ensurePlans lazily creates the plan cache; callers building derived
// contexts (function calls, GRAPH clauses) share the returned map so
// compilation is amortized across the whole query execution.
func (c *evalCtx) ensurePlans() map[planKey][]step {
	if c.plans == nil {
		c.plans = make(map[planKey][]step)
	}
	return c.plans
}

// compiledSteps returns the memoized step sequence for a group,
// compiling on first use. The cache lives for one query execution, so
// cached step state never leaks across queries.
func (c *evalCtx) compiledSteps(g *sparql.Group) []step {
	plans := c.ensurePlans()
	key := planKey{g, c.graph}
	if s, ok := plans[key]; ok {
		return s
	}
	s := c.orderFiltersByCost(compileGroup(g))
	if c.trace != nil {
		s = c.trace.wrap(g, s)
	}
	plans[key] = s
	return s
}

func runSteps(c *evalCtx, steps []step, i int, b Binding, yield func(Binding) error) error {
	if i == len(steps) {
		return yield(b)
	}
	return steps[i].run(c, b, func(b2 Binding) error {
		return runSteps(c, steps, i+1, b2, yield)
	})
}

// compileGroup lowers AST elements to steps. Filters are detached and
// re-attached after the earliest step prefix that certainly binds all
// their variables; remaining filters run at the end of the group
// (sound: bindings only ever extend, so a filter whose variables are
// certain at position k evaluates identically at k and at the end).
func compileGroup(g *sparql.Group) []step {
	var body []step
	var filters []sparql.Filter
	for _, el := range g.Elems {
		switch v := el.(type) {
		case sparql.BGP:
			body = append(body, &bgpStep{patterns: v.Triples})
		case sparql.Optional:
			body = append(body, &optionalStep{group: v.Group})
		case sparql.Union:
			body = append(body, &unionStep{branches: v.Branches})
		case sparql.Minus:
			body = append(body, &minusStep{group: v.Group})
		case sparql.Filter:
			filters = append(filters, v)
		case sparql.Bind:
			body = append(body, &bindStep{expr: v.Expr, name: v.Var})
		case sparql.InlineData:
			body = append(body, &valuesStep{data: v})
		case sparql.GraphClause:
			body = append(body, &graphStep{clause: v})
		case sparql.SubGroup:
			body = append(body, &subgroupStep{group: v.Group})
		case sparql.SubSelect:
			body = append(body, &subSelectStep{q: v.Query})
		}
	}
	if len(filters) == 0 {
		return body
	}
	// Pushdown: walk the body accumulating certain vars; attach each
	// filter right after the first prefix that covers its variables.
	var out []step
	pending := make([]sparql.Filter, len(filters))
	copy(pending, filters)
	certain := map[string]bool{}
	attach := func() {
		kept := pending[:0]
		for _, f := range pending {
			vars := map[string]bool{}
			sparql.ExprVars(f.Cond, vars)
			covered := true
			for v := range vars {
				if !certain[v] {
					covered = false
					break
				}
			}
			if covered {
				out = append(out, &filterStep{cond: f.Cond})
			} else {
				kept = append(kept, f)
			}
		}
		pending = kept
	}
	for _, s := range body {
		out = append(out, s)
		s.certainVars(certain)
		attach()
	}
	for _, f := range pending {
		out = append(out, &filterStep{cond: f.Cond})
	}
	return out
}

// compileGroupFor is compileGroup with access to the function registry
// so that, among filters attachable at the same position, the cheaper
// ones (by declared foreign-function cost, §4.4) run first.
func (c *evalCtx) orderFiltersByCost(steps []step) []step {
	// Stable-sort maximal runs of consecutive filter steps by cost.
	for lo := 0; lo < len(steps); {
		if _, ok := steps[lo].(*filterStep); !ok {
			lo++
			continue
		}
		hi := lo
		for hi < len(steps) {
			if _, ok := steps[hi].(*filterStep); !ok {
				break
			}
			hi++
		}
		if hi-lo > 1 {
			run := steps[lo:hi]
			sort.SliceStable(run, func(i, j int) bool {
				return c.exprCost(run[i].(*filterStep).cond) < c.exprCost(run[j].(*filterStep).cond)
			})
		}
		lo = hi
	}
	return steps
}

// exprCost estimates the evaluation cost of an expression: built-ins
// are cheap, foreign functions contribute their declared cost, EXISTS
// subpatterns are expensive, array dereferences moderately so.
func (c *evalCtx) exprCost(e sparql.Expression) float64 {
	cost := 0.0
	var walk func(sparql.Expression)
	walk = func(x sparql.Expression) {
		switch v := x.(type) {
		case nil:
			return
		case sparql.EBin:
			cost++
			walk(v.L)
			walk(v.R)
		case sparql.EUn:
			cost++
			walk(v.E)
		case sparql.ECall:
			if f, ok := c.eng.Funcs.Lookup(v.Name); ok && f.Cost > 0 {
				cost += f.Cost
			} else if _, isBuiltin := builtins[v.Name]; isBuiltin {
				cost += 2
			} else {
				cost += 10 // user-defined views: a nested evaluation
			}
			for _, a := range v.Args {
				walk(a)
			}
		case sparql.EExists:
			cost += 1000
		case sparql.ESubscript:
			cost += 20
			walk(v.Base)
		case sparql.EIn:
			cost += float64(len(v.List))
			walk(v.E)
		default:
			cost += 0.5
		}
	}
	walk(e)
	return cost
}

// --- BGP step ---

type bgpStep struct {
	patterns []sparql.TriplePattern
}

func (s *bgpStep) certainVars(into map[string]bool) {
	for _, tp := range s.patterns {
		if v, ok := varOf(tp.S); ok {
			into[v] = true
		}
		if pv, ok := tp.Path.(sparql.PathVar); ok {
			into[pv.Name] = true
		}
		if v, ok := varOf(tp.O); ok {
			into[v] = true
		}
	}
}

func (s *bgpStep) run(c *evalCtx, b Binding, yield func(Binding) error) error {
	pats := s.patterns
	if !c.eng.DisableJoinOrder && len(pats) > 1 {
		pats = c.orderPatterns(pats, b)
	}
	return c.matchPatterns(pats, 0, b, yield)
}

func (c *evalCtx) matchPatterns(pats []sparql.TriplePattern, i int, b Binding, yield func(Binding) error) error {
	if i == len(pats) {
		return yield(b)
	}
	if c.trace != nil {
		c.trace.matchCalls++
		ps := c.trace.patternStat(pats[i])
		return c.matchTriple(pats[i], b, func(b2 Binding) error {
			ps.emitted++
			c.trace.matched++
			return c.matchPatterns(pats, i+1, b2, yield)
		})
	}
	return c.matchTriple(pats[i], b, func(b2 Binding) error {
		return c.matchPatterns(pats, i+1, b2, yield)
	})
}

// resolveNode maps a pattern node to a concrete term (nil if it is an
// unbound variable) under the binding.
func resolveNode(n sparql.Node, b Binding) rdf.Term {
	if v, ok := varOf(n); ok {
		return b[v] // nil when unbound
	}
	return n.Term
}

// extend binds a variable, verifying consistency with an existing
// binding. It returns the (possibly new) binding and whether the
// extension is consistent. Bindings are copy-on-extend: the input
// map is shared untouched until the first new variable is bound, at
// which point it is cloned exactly once per extension chain (owned
// tracks whether b is already this chain's private clone). Yielded
// bindings are therefore immutable by convention — every consumer
// that wants to add a variable clones first.
func extend(b Binding, name string, t rdf.Term, owned bool) (Binding, bool, bool) {
	if prev, ok := b[name]; ok {
		return b, rdf.SameTerm(prev, t), owned
	}
	if !owned {
		b = b.clone()
		owned = true
	}
	b[name] = t
	return b, true, owned
}

func (c *evalCtx) matchTriple(tp sparql.TriplePattern, b Binding, yield func(Binding) error) error {
	sT := resolveNode(tp.S, b)
	oT := resolveNode(tp.O, b)

	emit := func(s, p, o rdf.Term, withPred bool, predVar string) error {
		// The innermost hot loop: every candidate solution passes
		// through here, so this is where deadlines, cancellation and
		// the bindings budget are enforced.
		if err := c.guard.step(); err != nil {
			return err
		}
		nb := b
		owned := false
		var okb bool
		if v, ok := varOf(tp.S); ok {
			nb, okb, owned = extend(nb, v, s, owned)
			if !okb {
				return nil
			}
		}
		if withPred {
			nb, okb, owned = extend(nb, predVar, p, owned)
			if !okb {
				return nil
			}
		}
		if v, ok := varOf(tp.O); ok {
			nb, okb, owned = extend(nb, v, o, owned)
			if !okb {
				return nil
			}
		}
		return yield(nb)
	}

	switch p := tp.Path.(type) {
	case sparql.PathIRI:
		var ierr error
		c.graph.MatchTermsCtx(c.matchCtx(), sT, p.IRI, oT, func(s, _, o rdf.Term) bool {
			if err := emit(s, nil, o, false, ""); err != nil {
				ierr = err
				return false
			}
			return true
		})
		return ierr
	case sparql.PathVar:
		pT := b[p.Name]
		var ierr error
		c.graph.MatchTermsCtx(c.matchCtx(), sT, pT, oT, func(s, pr, o rdf.Term) bool {
			withPred := pT == nil
			if err := emit(s, pr, o, withPred, p.Name); err != nil {
				ierr = err
				return false
			}
			return true
		})
		return ierr
	default:
		return c.evalPath(tp.Path, sT, oT, func(s, o rdf.Term) error {
			return emit(s, nil, o, false, "")
		})
	}
}

// --- cost-based ordering (§5.4, experiment A1's subject) ---

// orderPatterns greedily picks the cheapest next pattern given which
// variables are already bound, mirroring the predicate reordering of
// the Amos II cost-based optimizer.
func (c *evalCtx) orderPatterns(pats []sparql.TriplePattern, b Binding) []sparql.TriplePattern {
	bound := map[string]bool{}
	for v := range b {
		bound[v] = true
	}
	// Selection in place: out[k:] holds the unpicked patterns in order.
	out := append([]sparql.TriplePattern(nil), pats...)
	for k := range out {
		best := k
		bestCost := c.estimateCost(out[k], bound)
		for i := k + 1; i < len(out); i++ {
			if cost := c.estimateCost(out[i], bound); cost < bestCost {
				best, bestCost = i, cost
			}
		}
		tp := out[best]
		copy(out[k+1:best+1], out[k:best])
		out[k] = tp
		for _, v := range patternVars(make([]string, 0, 3), tp) {
			bound[v] = true
		}
	}
	return out
}

// patternVars appends the pattern's variables to out (cap 3 suffices).
func patternVars(out []string, tp sparql.TriplePattern) []string {
	if v, ok := varOf(tp.S); ok {
		out = append(out, v)
	}
	if pv, ok := tp.Path.(sparql.PathVar); ok {
		out = append(out, pv.Name)
	}
	if v, ok := varOf(tp.O); ok {
		out = append(out, v)
	}
	return out
}

// estimateCost estimates the fan-out of a triple pattern using the
// graph's per-predicate statistics (§2.3.1: indexes double as
// histograms).
func (c *evalCtx) estimateCost(tp sparql.TriplePattern, bound map[string]bool) float64 {
	g := c.graph
	size := float64(g.Size()) + 1

	nodeState := func(n sparql.Node) (ground bool, willBind bool) {
		if v, ok := varOf(n); ok {
			return false, bound[v]
		}
		return true, false
	}
	sGround, sBound := nodeState(tp.S)
	oGround, oBound := nodeState(tp.O)
	sKnown := sGround || sBound
	oKnown := oGround || oBound

	pIRI, pIsIRI := tp.Path.(sparql.PathIRI)
	if !pIsIRI {
		// Variable predicate or complex path: coarse estimates only.
		switch {
		case sKnown && oKnown:
			return 2
		case sKnown || oKnown:
			return size / 10
		default:
			return size * 2
		}
	}
	pid, ok := g.Lookup(pIRI.IRI)
	if !ok {
		return 0.5 // predicate absent: pattern is empty
	}
	count, dS, dO := g.PredStats(pid)
	cf := float64(count)
	switch {
	case sGround && oGround:
		var sid, oid rdf.ID
		if sid, ok = g.Lookup(tp.S.Term); !ok {
			return 0.5
		}
		if oid, ok = g.Lookup(tp.O.Term); !ok {
			return 0.5
		}
		return float64(g.CountMatch(sid, pid, oid)) + 0.5
	case sGround && !oKnown:
		if sid, ok := g.Lookup(tp.S.Term); ok {
			return float64(g.CountMatch(sid, pid, 0)) + 0.5
		}
		return 0.5
	case oGround && !sKnown:
		if oid, ok := g.Lookup(tp.O.Term); ok {
			return float64(g.CountMatch(0, pid, oid)) + 0.5
		}
		return 0.5
	case sKnown && oKnown:
		return 1
	case sKnown:
		if dS == 0 {
			return 0.5
		}
		return cf/float64(dS) + 1
	case oKnown:
		if dO == 0 {
			return 0.5
		}
		return cf/float64(dO) + 1
	default:
		return cf + 2
	}
}

// --- other steps ---

type filterStep struct {
	cond sparql.Expression
}

func (s *filterStep) certainVars(map[string]bool) {}

func (s *filterStep) run(c *evalCtx, b Binding, yield func(Binding) error) error {
	ok, err := filterKeeps(c.evalBool(s.cond, b))
	if err != nil || !ok {
		return err
	}
	return yield(b)
}

type bindStep struct {
	expr sparql.Expression
	name string
}

func (s *bindStep) certainVars(into map[string]bool) { into[s.name] = true }

func (s *bindStep) run(c *evalCtx, b Binding, yield func(Binding) error) error {
	v, err := c.eval(s.expr, b)
	if err != nil {
		if _, isExpr := err.(*exprError); !isExpr {
			return err
		}
		return yield(b) // expression error -> variable left unbound
	}
	if v == nil {
		return yield(b)
	}
	nb := b.clone()
	nb[s.name] = v
	return yield(nb)
}

type optionalStep struct {
	group *sparql.Group
}

func (s *optionalStep) certainVars(map[string]bool) {}

func (s *optionalStep) run(c *evalCtx, b Binding, yield func(Binding) error) error {
	matched := false
	err := c.evalGroup(s.group, b, func(b2 Binding) error {
		matched = true
		return yield(b2)
	})
	if err != nil {
		return err
	}
	if !matched {
		return yield(b)
	}
	return nil
}

type unionStep struct {
	branches []*sparql.Group
}

func (s *unionStep) certainVars(into map[string]bool) {
	// Only variables certain in every branch are certain overall.
	var common map[string]bool
	for _, br := range s.branches {
		vars := map[string]bool{}
		for _, st := range compileGroup(br) {
			st.certainVars(vars)
		}
		if common == nil {
			common = vars
			continue
		}
		for v := range common {
			if !vars[v] {
				delete(common, v)
			}
		}
	}
	for v := range common {
		into[v] = true
	}
}

func (s *unionStep) run(c *evalCtx, b Binding, yield func(Binding) error) error {
	for _, br := range s.branches {
		if err := c.evalGroup(br, b, yield); err != nil {
			return err
		}
	}
	return nil
}

type minusStep struct {
	group  *sparql.Group
	cached []Binding
	loaded bool
}

func (s *minusStep) certainVars(map[string]bool) {}

func (s *minusStep) run(c *evalCtx, b Binding, yield func(Binding) error) error {
	if !s.loaded {
		// MINUS is uncorrelated: its pattern is evaluated on its own
		// and solutions are removed by domain-overlapping compatibility.
		err := c.evalGroup(s.group, Binding{}, func(b2 Binding) error {
			s.cached = append(s.cached, b2)
			return nil
		})
		if err != nil {
			return err
		}
		s.loaded = true
	}
	for _, m := range s.cached {
		overlap := false
		compatible := true
		for k, v := range m {
			if bv, ok := b[k]; ok {
				overlap = true
				if !rdf.SameTerm(bv, v) {
					compatible = false
					break
				}
			}
		}
		if overlap && compatible {
			return nil // removed
		}
	}
	return yield(b)
}

type subgroupStep struct {
	group *sparql.Group
}

func (s *subgroupStep) certainVars(into map[string]bool) {
	for _, st := range compileGroup(s.group) {
		st.certainVars(into)
	}
}

func (s *subgroupStep) run(c *evalCtx, b Binding, yield func(Binding) error) error {
	return c.evalGroup(s.group, b, yield)
}

// subSelectStep evaluates a nested SELECT bottom-up (with no outer
// bindings, per SPARQL 1.1 semantics) and joins its projected rows
// with the incoming solutions.
type subSelectStep struct {
	q      *sparql.Query
	cached *Results
}

func (s *subSelectStep) certainVars(map[string]bool) {}

func (s *subSelectStep) run(c *evalCtx, b Binding, yield func(Binding) error) error {
	if s.cached == nil {
		res, err := c.eng.execSelect(c, s.q, Binding{})
		if err != nil {
			return err
		}
		s.cached = res
	}
	for _, row := range s.cached.Rows {
		if err := c.guard.step(); err != nil {
			return err
		}
		nb := b
		owned := false
		ok := true
		for i, name := range s.cached.Vars {
			if row[i] == nil {
				continue
			}
			var consistent bool
			nb, consistent, owned = extend(nb, name, row[i], owned)
			if !consistent {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if err := yield(nb); err != nil {
			return err
		}
	}
	return nil
}

type valuesStep struct {
	data sparql.InlineData
}

func (s *valuesStep) certainVars(map[string]bool) {}

func (s *valuesStep) run(c *evalCtx, b Binding, yield func(Binding) error) error {
	for _, row := range s.data.Rows {
		if err := c.guard.step(); err != nil {
			return err
		}
		nb := b
		owned := false
		ok := true
		for i, name := range s.data.Vars {
			if row[i] == nil {
				continue // UNDEF
			}
			var consistent bool
			nb, consistent, owned = extend(nb, name, row[i], owned)
			if !consistent {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if err := yield(nb); err != nil {
			return err
		}
	}
	return nil
}

type graphStep struct {
	clause sparql.GraphClause
}

func (s *graphStep) certainVars(into map[string]bool) {
	if s.clause.Var != "" {
		into[s.clause.Var] = true
	}
}

func (s *graphStep) run(c *evalCtx, b Binding, yield func(Binding) error) error {
	ds := c.eng.Dataset
	runIn := func(name rdf.IRI, bind bool) error {
		if c.named != nil && !c.named[name] {
			return nil // outside the FROM NAMED dataset
		}
		g := ds.Named(name, false)
		if g == nil {
			return nil
		}
		sub := &evalCtx{eng: c.eng, graph: c.pin(g), depth: c.depth, named: c.named, plans: c.ensurePlans(), snaps: c.ensureSnaps(), guard: c.guard, trace: c.trace}
		nb := b
		if bind {
			var ok bool
			nb, ok, _ = extend(nb, s.clause.Var, name, false)
			if !ok {
				return nil
			}
		}
		return sub.evalGroup(s.clause.Group, nb, yield)
	}
	if s.clause.Name != nil {
		iri, _ := s.clause.Name.(rdf.IRI)
		return runIn(iri, false)
	}
	// GRAPH ?g: bound variable selects one graph, unbound iterates.
	if t, ok := b[s.clause.Var]; ok {
		if iri, isIRI := t.(rdf.IRI); isIRI {
			return runIn(iri, false)
		}
		return nil
	}
	for _, name := range ds.GraphNames() {
		if err := runIn(name, true); err != nil {
			return err
		}
	}
	return nil
}
