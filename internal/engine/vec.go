package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// Vectorized (batch-at-a-time) execution. The tuple path streams one
// Binding through the compiled step sequence per emit; for the hot
// relational core — triple-pattern scans, index-nested-loop joins on
// shared variables, and simple FILTERs — this pays an interface-typed
// map operation per variable per solution. The vectorized path instead
// flows fixed-size batches of dictionary-ID columns (colbatch) through
// a short pipeline of vec operators compiled from the same step
// sequence, decoding IDs to rdf.Term only at projection (or at the
// bridge into the remaining tuple steps). The supported core covers
// scans, joins, simple FILTERs, single-pattern OPTIONAL (left-outer
// join emitting rdf.Unbound for unmatched rows), UNION (branches run
// batch-at-a-time, schemas aligned and padded), plus — above the
// pipeline — batch-native aggregation (vecagg.go) and ORDER BY over ID
// rows (vecSelect). Steps outside it — property paths, MINUS, BIND,
// EXISTS, subqueries, VALUES, GRAPH — run unchanged as the tuple
// suffix, so the two paths always agree on semantics; only the prefix
// is accelerated.
//
// ID semantics make this sound: the dictionary assigns one ID per
// rdf.SameTerm class, so ID equality is exactly the term identity the
// tuple path uses for join consistency and DISTINCT. Value comparisons
// (FILTER =, <) are NOT ID comparisons — the vec filter decodes its
// operands and reuses Equals/Compare/Arith/EBV, preserving SPARQL
// value semantics (Integer(5) = Float(5.0) holds across distinct IDs).

// colbatch is a batch of solutions in columnar (struct-of-arrays)
// form: one ID column per schema variable, row-aligned. Scans and
// joins only ever bind real terms, so their columns hold valid IDs;
// columns introduced under OPTIONAL or absent from a UNION branch are
// nullable and hold rdf.Unbound (0) on rows where the variable has no
// binding (the plan's nullable mask records which columns may).
type colbatch struct {
	cols  [][]rdf.ID
	slabs []*[]rdf.ID // colPool boxes behind cols while a run borrows them
	n     int
}

// colPool recycles the column slabs of operator outputs. A run borrows
// one slab per output column (borrow) and returns each exactly once when
// it ends (release), so between runs a plan holds no column memory. As
// with rdf's triple-batch pool, no slab over 2^16 IDs is kept.
var colPool = sync.Pool{New: func() any { return new([]rdf.ID) }}

// borrow gives each column an empty slab of capacity ≥ bs from colPool.
func (b *colbatch) borrow(bs int) {
	for i := range b.cols {
		p := colPool.Get().(*[]rdf.ID)
		if cap(*p) < bs {
			*p = make([]rdf.ID, 0, bs)
		}
		b.cols[i], b.slabs[i] = (*p)[:0], p
	}
	b.n = 0
}

// release returns the borrowed slabs. A column never outgrows its slab
// (operators flush at the batch size), so each box still holds it.
func (b *colbatch) release() {
	for i, p := range b.slabs {
		if cap(*p) <= 1<<16 {
			colPool.Put(p)
		}
		b.cols[i], b.slabs[i] = nil, nil
	}
}

func (b *colbatch) reset() {
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.n = 0
}

// flushTo yields the batch downstream when non-empty and resets it for
// refilling.
func (b *colbatch) flushTo(yield vecSink) error {
	if b.n == 0 {
		return nil
	}
	err := yield(b)
	b.reset()
	return err
}

// vecSink consumes one batch. The batch's columns are only valid until
// the sink returns (they are slabs borrowed for the run, or rdf's).
type vecSink func(b *colbatch) error

// vecPos describes one triple-pattern position in a vec operator. A
// position is exactly one of: a constant term (constTerm non-nil,
// constID re-resolved per graph generation), a variable already bound
// by the input schema (inCol), or a variable this pattern introduces
// (outCol; a repeated new variable's later occurrences carry eqPos
// pointing at the first occurrence instead).
type vecPos struct {
	constTerm rdf.Term
	constID   rdf.ID
	inCol     int32 // int32s keep a join within a smaller size class
	outCol    int32
	eqPos     int32
}

type vecPattern struct {
	pos [3]vecPos
	tp  *sparql.TriplePattern // rendered only when a plan is described
}

// dead reports whether a constant of the pattern is absent from the
// dictionary — the pattern can match nothing against this graph state.
func (p *vecPattern) dead() bool {
	for i := range p.pos {
		if p.pos[i].constTerm != nil && p.pos[i].constID == 0 {
			return true
		}
	}
	return false
}

// probe resolves the pattern's probe IDs for one input row (0 =
// wildcard position).
func (p *vecPattern) probe(in *colbatch, r int) (s, pr, o rdf.ID) {
	ids := [3]rdf.ID{}
	for i := range p.pos {
		switch {
		case p.pos[i].constTerm != nil:
			ids[i] = p.pos[i].constID
		case p.pos[i].inCol >= 0:
			ids[i] = in.cols[p.pos[i].inCol][r]
		}
	}
	return ids[0], ids[1], ids[2]
}

// vecOp is one operator of a vectorized plan. The root op (a scan)
// ignores its input batch; every other op consumes input batches and
// pushes output batches to yield.
type vecOp interface {
	push(c *evalCtx, pl *vecPlan, in *colbatch, yield vecSink) error
	pattern() *vecPattern // nil for non-pattern ops
	describe() (kind, detail string)
}

// --- scan: the pipeline root, fed by Graph.MatchIDs ---

type vecScan struct {
	pat vecPattern
	out colbatch
	eqs bool // repeated variable inside the pattern: compact via scratch
}

func (s *vecScan) pattern() *vecPattern       { return &s.pat }
func (s *vecScan) describe() (string, string) { return "vec scan", s.pat.tp.String() }

func (s *vecScan) push(c *evalCtx, pl *vecPlan, _ *colbatch, yield vecSink) error {
	if s.pat.dead() {
		return nil
	}
	sid, pid, oid := s.pat.probe(nil, 0)
	defer clear(s.out.cols) // drop aliases of rdf's slabs; release returns an eq-scan's
	var ierr error
	c.graph.MatchIDs(c.matchCtx(), sid, pid, oid, pl.ebs, func(ss, pp, oo []rdf.ID) bool {
		cols := [3][]rdf.ID{ss, pp, oo}
		b := &s.out
		if !s.eqs {
			// No intra-pattern constraints: alias the pooled slabs
			// directly (the sink contract forbids retaining them).
			for i := 0; i < 3; i++ {
				if oc := s.pat.pos[i].outCol; oc >= 0 {
					b.cols[oc] = cols[i]
				}
			}
			b.n = len(ss)
		} else {
			b.reset()
			for r := 0; r < len(ss); r++ {
				ok := true
				for i := 0; i < 3; i++ {
					if eq := s.pat.pos[i].eqPos; eq >= 0 && cols[i][r] != cols[eq][r] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				for i := 0; i < 3; i++ {
					if oc := s.pat.pos[i].outCol; oc >= 0 {
						b.cols[oc] = append(b.cols[oc], cols[i][r])
					}
				}
				b.n++
			}
		}
		if b.n == 0 {
			return true
		}
		if ierr = yield(b); ierr != nil {
			return false
		}
		return true
	})
	return ierr
}

// --- join: index-nested-loop probe per input row ---

type vecJoin struct {
	pat  vecPattern
	inW  int // input schema width (columns copied through)
	nNew int // variables this pattern introduces
	out  colbatch
	tb   rdf.TripleBatch // per-row probe scratch (single lock hold)
}

func (j *vecJoin) pattern() *vecPattern       { return &j.pat }
func (j *vecJoin) describe() (string, string) { return "vec join", j.pat.tp.String() }

func (j *vecJoin) push(c *evalCtx, pl *vecPlan, in *colbatch, yield vecSink) error {
	if j.pat.dead() {
		return nil
	}
	out := &j.out
	for r := 0; r < in.n; r++ {
		s, p, o := j.pat.probe(in, r)
		if j.nNew == 0 {
			// Fully bound: a semi-join membership probe.
			if !c.graph.HasIDs(s, p, o) {
				continue
			}
			for k := 0; k < j.inW; k++ {
				out.cols[k] = append(out.cols[k], in.cols[k][r])
			}
			out.n++
			if out.n >= pl.ebs {
				if err := out.flushTo(yield); err != nil {
					return err
				}
			}
			continue
		}
		j.tb.Reset()
		if c.graph.MatchAppend(s, p, o, &j.tb) == 0 {
			continue
		}
		tcols := [3][]rdf.ID{j.tb.S, j.tb.P, j.tb.O}
		for m := 0; m < j.tb.Len(); m++ {
			ok := true
			for i := 0; i < 3; i++ {
				if eq := j.pat.pos[i].eqPos; eq >= 0 && tcols[i][m] != tcols[eq][m] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for k := 0; k < j.inW; k++ {
				out.cols[k] = append(out.cols[k], in.cols[k][r])
			}
			for i := 0; i < 3; i++ {
				if oc := j.pat.pos[i].outCol; oc >= 0 {
					out.cols[oc] = append(out.cols[oc], tcols[i][m])
				}
			}
			out.n++
			if out.n >= pl.ebs {
				if err := out.flushTo(yield); err != nil {
					return err
				}
			}
		}
	}
	return out.flushTo(yield)
}

// --- filter: per-row predicate over decoded terms, compacted in place ---

type vecFilter struct {
	cond sparql.Expression
	fn   vecExpr
	ev   vecEval // reused per row so evaluation allocates nothing
}

func (f *vecFilter) pattern() *vecPattern { return nil }
func (f *vecFilter) describe() (string, string) {
	return "vec filter", f.cond.String()
}

func (f *vecFilter) push(c *evalCtx, pl *vecPlan, in *colbatch, yield vecSink) error {
	f.ev.g = c.graph
	f.ev.b = in
	w := 0
	for r := 0; r < in.n; r++ {
		f.ev.row = r
		keep, err := filterKeeps(truth(f.fn(&f.ev)))
		if err != nil {
			return err
		}
		if !keep {
			continue
		}
		if w != r {
			for _, col := range in.cols {
				col[w] = col[r]
			}
		}
		w++
	}
	in.n = w
	if w == 0 {
		return nil
	}
	return yield(in)
}

// vecEval is the row cursor a compiled filter expression reads from.
type vecEval struct {
	g   *rdf.Graph
	b   *colbatch
	row int
}

// vecExpr is a compiled filter expression: closures built once at plan
// time, evaluated per row with no interpretation overhead beyond the
// calls themselves. Each closure applies the operator eval applies
// (opNot, opNeg, logic, binaryOp in value.go), chosen once here, so
// the two paths share every scalar rule.
type vecExpr func(e *vecEval) (rdf.Term, error)

// compileVecExpr lowers the supported expression subset (variables,
// literals, !/- unary, logical/comparison/arithmetic binary operators).
// Anything else — calls, EXISTS, IN, subscripts — reports false and the
// filter runs in the tuple suffix instead.
func compileVecExpr(x sparql.Expression, colOf map[string]int) (vecExpr, bool) {
	switch v := x.(type) {
	case sparql.EVar:
		col, ok := colOf[v.Name]
		if !ok {
			return nil, false
		}
		name := v.Name
		return func(e *vecEval) (rdf.Term, error) {
			id := e.b.cols[col][e.row]
			if id == rdf.Unbound {
				// Mirror eval.go: an unbound variable is an expression
				// error (a FILTER collapses it to false, §3.6).
				return nil, errf("unbound variable ?%s", name)
			}
			return e.g.TermOf(id), nil
		}, true
	case sparql.ELit:
		t := v.Term
		return func(*vecEval) (rdf.Term, error) { return t, nil }, true
	case sparql.EUn:
		sub, ok := compileVecExpr(v.E, colOf)
		if !ok {
			return nil, false
		}
		switch v.Op {
		case "!":
			return func(e *vecEval) (rdf.Term, error) { return opNot(sub(e)) }, true
		case "-":
			return func(e *vecEval) (rdf.Term, error) { return opNeg(sub(e)) }, true
		}
		return nil, false
	case sparql.EBin:
		l, ok := compileVecExpr(v.L, colOf)
		if !ok {
			return nil, false
		}
		r, ok := compileVecExpr(v.R, colOf)
		if !ok {
			return nil, false
		}
		if v.Op == "||" || v.Op == "&&" {
			and := v.Op == "&&"
			return func(e *vecEval) (rdf.Term, error) {
				lb, lerr := truth(l(e))
				rb, rerr := truth(r(e))
				return logic(and, lb, lerr, rb, rerr)
			}, true
		}
		op := binaryOp(v.Op)
		return func(e *vecEval) (rdf.Term, error) {
			lv, err := l(e)
			if err != nil {
				return nil, err
			}
			rv, err := r(e)
			if err != nil {
				return nil, err
			}
			return op(lv, rv)
		}, true
	}
	return nil, false
}

// --- optional: left-outer batch join ---

// vecOptional lowers OPTIONAL { pattern [FILTER...] }: every input row
// is probed like a join; matching candidates (that pass the
// OPTIONAL-local filters) extend the row, and a row with no surviving
// candidate is emitted once with rdf.Unbound in each column the
// OPTIONAL introduces. The filters must run inside the operator — a
// candidate rejected by them still leaves the left row eligible for
// the unbound emission, exactly like the tuple optionalStep running
// its group's filter steps.
type vecOptional struct {
	pat   vecPattern
	inW   int // input schema width (columns copied through)
	nNew  int // variables the OPTIONAL introduces (nullable columns)
	conds []sparql.Expression
	fns   []vecExpr
	ev    vecEval // reused per candidate so evaluation allocates nothing
	out   colbatch
	tb    rdf.TripleBatch
}

func (o *vecOptional) pattern() *vecPattern { return &o.pat }
func (o *vecOptional) describe() (string, string) {
	detail := o.pat.tp.String()
	if n := len(o.conds); n > 0 {
		detail += fmt.Sprintf(" + %d filter(s)", n)
	}
	return "vec optional", detail
}

func (o *vecOptional) push(c *evalCtx, pl *vecPlan, in *colbatch, yield vecSink) error {
	out := &o.out
	o.ev.g = c.graph
	dead := o.pat.dead()
	for r := 0; r < in.n; r++ {
		matched := false
		if !dead {
			s, p, ob := o.pat.probe(in, r)
			o.tb.Reset()
			c.graph.MatchAppend(s, p, ob, &o.tb)
			tcols := [3][]rdf.ID{o.tb.S, o.tb.P, o.tb.O}
			for m := 0; m < o.tb.Len(); m++ {
				ok := true
				for i := 0; i < 3; i++ {
					if eq := o.pat.pos[i].eqPos; eq >= 0 && tcols[i][m] != tcols[eq][m] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				// Tentatively append the full output row, evaluate the
				// OPTIONAL-local filters against it in place, and truncate
				// it back off on rejection.
				row := out.n
				for k := 0; k < o.inW; k++ {
					out.cols[k] = append(out.cols[k], in.cols[k][r])
				}
				for i := 0; i < 3; i++ {
					if oc := o.pat.pos[i].outCol; oc >= 0 {
						out.cols[oc] = append(out.cols[oc], tcols[i][m])
					}
				}
				keep := true
				if len(o.fns) > 0 {
					o.ev.b = out
					o.ev.row = row
					for _, fn := range o.fns {
						var err error
						if keep, err = filterKeeps(truth(fn(&o.ev))); err != nil {
							return err
						}
						if !keep {
							break
						}
					}
				}
				if !keep {
					for k := range out.cols {
						out.cols[k] = out.cols[k][:row]
					}
					continue
				}
				out.n++
				matched = true
				if out.n >= pl.ebs {
					if err := out.flushTo(yield); err != nil {
						return err
					}
				}
			}
		}
		if !matched {
			for k := 0; k < o.inW; k++ {
				out.cols[k] = append(out.cols[k], in.cols[k][r])
			}
			for k := o.inW; k < o.inW+o.nNew; k++ {
				out.cols[k] = append(out.cols[k], rdf.Unbound)
			}
			out.n++
			if out.n >= pl.ebs {
				if err := out.flushTo(yield); err != nil {
					return err
				}
			}
		}
	}
	return out.flushTo(yield)
}

// --- union: branch pipelines concatenated onto one aligned schema ---

// vecUnionBranch is one branch's private pipeline plus the mapping
// from the union's output schema to the branch's columns (-1 = the
// branch does not bind the variable; the cell is padded rdf.Unbound).
type vecUnionBranch struct {
	ops   []vecOp
	srcOf []int
	opTr  []*vecOpTrace // parallel to ops; nil when untraced
}

// vecUnion runs at the root of a plan: each branch's fully-vectorized
// pipeline executes in turn, and its batches are re-mapped onto the
// union schema (the ordered union of the branch schemas) and
// concatenated.
type vecUnion struct {
	branches []vecUnionBranch
	out      colbatch
}

func (u *vecUnion) pattern() *vecPattern { return nil }
func (u *vecUnion) describe() (string, string) {
	return "vec union", fmt.Sprintf("%d branches", len(u.branches))
}

func (u *vecUnion) push(c *evalCtx, pl *vecPlan, _ *colbatch, yield vecSink) error {
	out := &u.out
	for bi := range u.branches {
		br := &u.branches[bi]
		final := func(b *colbatch) error {
			for r := 0; r < b.n; r++ {
				for ci, src := range br.srcOf {
					if src >= 0 {
						out.cols[ci] = append(out.cols[ci], b.cols[src][r])
					} else {
						out.cols[ci] = append(out.cols[ci], rdf.Unbound)
					}
				}
				out.n++
				if out.n >= pl.ebs {
					if err := out.flushTo(yield); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := br.ops[0].push(c, pl, nil, pl.chain(c, br.ops, br.opTr, final)); err != nil {
			return err
		}
	}
	return out.flushTo(yield)
}

// --- plan ---

// vecPlan is the vectorized prefix of one compiled group: the vec
// operators covering the first `covered` steps, the remaining tuple
// steps (`rest`), and the output batches (`outs`) whose columns each run
// borrows from colPool and returns when it ends. A plan is private to
// one evalCtx (it lives in the ctx's vecPlans map), so a run is
// single-goroutine; busy guards against accidental re-entrant runs
// (fall back to the tuple path instead of sharing borrowed columns).
type vecPlan struct {
	group   *sparql.Group
	schema  []string
	ops     []vecOp
	opTr    []*vecOpTrace // parallel to ops; nil entries when untraced
	rest    []step
	covered int
	bs      int

	// nullable is schema-aligned: true when the column may hold
	// rdf.Unbound (it was introduced under OPTIONAL, or is absent from —
	// or nullable within — a UNION branch). Later patterns refuse to
	// probe nullable columns (0 would act as a wildcard, not a join).
	nullable []bool

	// subPats are patterns living inside composite operators (UNION
	// branch pipelines) rather than in ops directly; refresh re-resolves
	// their constants too.
	subPats []*vecPattern

	// outs are the batches whose columns a run borrows: every join,
	// OPTIONAL and UNION output and the eq-scan's compaction batch,
	// including those of UNION branch pipelines.
	outs []*colbatch

	// ebs is the effective batch size of the current run: bs, clamped
	// down when the caller has a small row budget (a LIMIT already
	// satisfied downstream must not materialize — and be guard-charged
	// for — a full batch it will never read).
	ebs int

	// Constant-term IDs are baked in at compile; gen records the graph
	// generation they were resolved at, and run() re-resolves them when
	// the graph has mutated since — a plan never probes stale IDs.
	gen   uint64
	fresh bool
	busy  bool
}

func refreshPat(g *rdf.Graph, pat *vecPattern) {
	for i := range pat.pos {
		if pat.pos[i].constTerm != nil {
			pat.pos[i].constID, _ = g.Lookup(pat.pos[i].constTerm)
		}
	}
}

func (pl *vecPlan) refresh(g *rdf.Graph) {
	gen := g.Generation()
	if pl.fresh && gen == pl.gen {
		return
	}
	for _, op := range pl.ops {
		if pat := op.pattern(); pat != nil {
			refreshPat(g, pat)
		}
	}
	for _, pat := range pl.subPats {
		refreshPat(g, pat)
	}
	pl.gen = gen
	pl.fresh = true
}

// run executes the pipeline, pushing final batches to sink. Guard
// accounting happens per operator output batch (batch(n) ≈ one step()
// per emitted candidate on the tuple path), and the context is polled
// at the same boundaries.
func (pl *vecPlan) run(c *evalCtx, final vecSink) error {
	return pl.runWithBudget(c, -1, final)
}

// runWithBudget is run with a downstream row budget: when the caller
// will stop after at most `budget` rows (a pushed-down LIMIT), batches
// are clamped to that size so the pipeline neither materializes nor
// guard-charges rows the consumer will never read. budget <= 0 means
// unbounded.
func (pl *vecPlan) runWithBudget(c *evalCtx, budget int, final vecSink) error {
	pl.busy = true
	for _, b := range pl.outs {
		b.borrow(pl.bs)
	}
	defer func() {
		for _, b := range pl.outs {
			b.release()
		}
		pl.busy = false
	}()
	pl.refresh(c.graph)
	pl.ebs = pl.bs
	if budget > 0 && budget < pl.bs {
		pl.ebs = budget
	}

	var batches, rows int64
	err := pl.ops[0].push(c, pl, nil, pl.chain(c, pl.ops, pl.opTr, func(b *colbatch) error {
		batches++
		rows += int64(b.n)
		return final(b)
	}))
	c.eng.vecQueries.Add(1)
	c.eng.vecBatches.Add(batches)
	c.eng.vecRows.Add(rows)
	if c.trace != nil {
		c.trace.vectorized = true
		c.trace.vecBatches += batches
		c.trace.vecRows += rows
	}
	return err
}

// chain links ops into one pipeline ending in final and returns the
// sink ops[0] pushes to. It is built once per run, so the per-batch
// flow allocates nothing; every op's output is guard-charged and
// traced on the way through.
func (pl *vecPlan) chain(c *evalCtx, ops []vecOp, opTr []*vecOpTrace, final vecSink) vecSink {
	next := final
	for i := len(ops) - 1; i >= 0; i-- {
		var tr *vecOpTrace
		if opTr != nil {
			tr = opTr[i]
		}
		var op vecOp
		if i+1 < len(ops) {
			op = ops[i+1]
		}
		out := next
		next = func(b *colbatch) error {
			if err := c.guard.batch(b.n); err != nil {
				return err
			}
			if tr != nil {
				tr.batches++
				tr.rows += int64(b.n)
			}
			if op == nil {
				return out(b)
			}
			return op.push(c, pl, b, out)
		}
	}
	return next
}

// vecPlanFor returns the group's vectorized plan (nil when batch mode
// is off or no vectorizable prefix exists). Plans are memoized per
// (group, graph) for the duration of one evalCtx, like compiledSteps.
func (c *evalCtx) vecPlanFor(g *sparql.Group) *vecPlan {
	bs := c.eng.effBatchSize()
	if bs <= 0 || c.graph == nil {
		return nil
	}
	if c.vecPlans == nil {
		c.vecPlans = make(map[planKey]*vecPlan)
	}
	key := planKey{g, c.graph}
	if pl, ok := c.vecPlans[key]; ok {
		return pl
	}
	pl := c.buildVecPlan(g, bs)
	c.vecPlans[key] = pl
	if pl != nil && c.trace != nil {
		c.trace.registerVec(g, pl)
	}
	return pl
}

// buildVecPlan compiles the longest vectorizable prefix of the group's
// step sequence. A BGP vectorizes when every pattern's path is a plain
// IRI or variable (property paths stay on the tuple path); its
// patterns are cost-ordered once against the schema bound so far,
// matching the order the tuple path would pick for the first binding.
// A filter vectorizes when compileVecExpr supports its condition. An
// OPTIONAL vectorizes when its body is a single plain pattern plus
// supported filters; a UNION at the start of the group vectorizes when
// every branch vectorizes completely. The first unsupported step ends
// the prefix; it and everything after run as tuple steps over decoded
// bindings.
func (c *evalCtx) buildVecPlan(g *sparql.Group, bs int) *vecPlan {
	steps := c.compiledSteps(g)
	pl := &vecPlan{group: g, bs: bs}
	colOf := make(map[string]int)
	covered := 0
loop:
	for _, st := range steps {
		inner := st
		if ts, ok := st.(*tracedStep); ok {
			inner = ts.inner
		}
		switch v := inner.(type) {
		case *bgpStep:
			for _, tp := range v.patterns {
				switch tp.Path.(type) {
				case sparql.PathIRI, sparql.PathVar:
				default:
					break loop
				}
				// A pattern may not probe a nullable column: 0 in a
				// probe position acts as a wildcard, not as "join with
				// an unbound variable" — end the prefix instead.
				if pl.refsNullable(tp, colOf) {
					break loop
				}
			}
			pats := v.patterns
			if !c.eng.DisableJoinOrder && len(pats) > 1 {
				bound := make(Binding, len(pl.schema))
				for _, name := range pl.schema {
					bound[name] = nil
				}
				pats = c.orderPatterns(pats, bound)
			}
			for i := range pats {
				pl.addPattern(&pats[i], colOf)
			}
		case *filterStep:
			if len(pl.ops) == 0 {
				break loop
			}
			fn, ok := compileVecExpr(v.cond, colOf)
			if !ok {
				break loop
			}
			pl.ops = append(pl.ops, &vecFilter{cond: v.cond, fn: fn})
		case *optionalStep:
			if len(pl.ops) == 0 || !c.lowerOptional(pl, v.group, colOf) {
				break loop
			}
		case *unionStep:
			// Only at the root: a union over an existing prefix would be
			// a correlated join against every branch, which the branch
			// pipelines (built uncorrelated) cannot express.
			if len(pl.ops) != 0 || !c.lowerUnion(pl, v.branches, colOf) {
				break loop
			}
		default:
			break loop
		}
		covered++
	}
	if len(pl.ops) == 0 {
		return nil
	}
	pl.covered = covered
	pl.rest = steps[covered:]
	return pl
}

// refsNullable reports whether a pattern references (and would
// therefore probe) a schema column that may hold the unbound sentinel.
func (pl *vecPlan) refsNullable(tp sparql.TriplePattern, colOf map[string]int) bool {
	for _, name := range patternVars(make([]string, 0, 3), tp) {
		if col, ok := colOf[name]; ok && pl.nullable[col] {
			return true
		}
	}
	return false
}

// lowerPattern computes the vecPos layout of one triple pattern
// against the current schema, appending the pattern's new variables to
// the schema (as non-nullable; the caller adjusts).
func (pl *vecPlan) lowerPattern(tp *sparql.TriplePattern, colOf map[string]int) (pat vecPattern, nNew int, eqs bool) {
	pat.tp = tp
	for i := range pat.pos {
		pat.pos[i] = vecPos{inCol: -1, outCol: -1, eqPos: -1}
	}
	// Per-position node: a constant term or a variable name.
	var names [3]string
	var consts [3]rdf.Term
	if v, ok := varOf(tp.S); ok {
		names[0] = v
	} else {
		consts[0] = tp.S.Term
	}
	switch p := tp.Path.(type) {
	case sparql.PathIRI:
		consts[1] = p.IRI
	case sparql.PathVar:
		names[1] = p.Name
	}
	if v, ok := varOf(tp.O); ok {
		names[2] = v
	} else {
		consts[2] = tp.O.Term
	}

	firstOf := map[string]int{}
	for i := 0; i < 3; i++ {
		if consts[i] != nil {
			pat.pos[i].constTerm = consts[i]
			continue
		}
		name := names[i]
		// Intra-pattern repetition first: a new variable's second
		// occurrence is an equality constraint against its first, NOT a
		// schema column (colOf already holds the first occurrence).
		if fp, seen := firstOf[name]; seen {
			pat.pos[i].eqPos = int32(fp)
			eqs = true
			continue
		}
		if col, bound := colOf[name]; bound {
			pat.pos[i].inCol = int32(col)
			continue
		}
		firstOf[name] = i
		pat.pos[i].outCol = int32(len(pl.schema))
		colOf[name] = len(pl.schema)
		pl.schema = append(pl.schema, name)
		pl.nullable = append(pl.nullable, false)
		nNew++
	}
	return pat, nNew, eqs
}

// addPattern lowers one triple pattern to a scan (first op) or join,
// growing the plan schema with the pattern's new variables.
func (pl *vecPlan) addPattern(tp *sparql.TriplePattern, colOf map[string]int) {
	inW := len(pl.schema)
	pat, nNew, eqs := pl.lowerPattern(tp, colOf)
	width := len(pl.schema)
	if len(pl.ops) == 0 {
		op := &vecScan{pat: pat, eqs: eqs}
		if eqs {
			pl.own(&op.out, width)
		} else {
			op.out.cols = make([][]rdf.ID, width)
		}
		pl.ops = append(pl.ops, op)
		return
	}
	op := &vecJoin{pat: pat, inW: inW, nNew: nNew}
	pl.own(&op.out, width)
	pl.ops = append(pl.ops, op)
}

// own sizes b for width columns and registers it among the batches
// whose columns each run borrows.
func (pl *vecPlan) own(b *colbatch, width int) {
	b.cols = make([][]rdf.ID, width)
	b.slabs = make([]*[]rdf.ID, width)
	pl.outs = append(pl.outs, b)
}

// lowerOptional lowers OPTIONAL { body } onto the plan when the body
// is one BGP with a single plain-path pattern plus any number of
// filters compileVecExpr supports, and the pattern does not probe a
// nullable column. On failure the plan is left exactly as it was and
// the caller ends the prefix (the tuple optionalStep handles it).
func (c *evalCtx) lowerOptional(pl *vecPlan, g *sparql.Group, colOf map[string]int) bool {
	var pats []sparql.TriplePattern
	var conds []sparql.Expression
	for _, st := range c.compiledSteps(g) {
		inner := st
		if ts, ok := st.(*tracedStep); ok {
			inner = ts.inner
		}
		switch v := inner.(type) {
		case *bgpStep:
			pats = append(pats, v.patterns...)
		case *filterStep:
			conds = append(conds, v.cond)
		default:
			return false
		}
	}
	if len(pats) != 1 {
		// Multi-pattern OPTIONAL is all-or-nothing (the whole body must
		// match), which a single left-outer probe cannot express.
		return false
	}
	tp := pats[0]
	switch tp.Path.(type) {
	case sparql.PathIRI, sparql.PathVar:
	default:
		return false
	}
	if pl.refsNullable(tp, colOf) {
		return false
	}

	inW := len(pl.schema)
	pat, nNew, _ := pl.lowerPattern(&pats[0], colOf)
	rollback := func() {
		for _, name := range pl.schema[inW:] {
			delete(colOf, name)
		}
		pl.schema = pl.schema[:inW]
		pl.nullable = pl.nullable[:inW]
	}
	var fns []vecExpr
	for _, cond := range conds {
		fn, ok := compileVecExpr(cond, colOf)
		if !ok {
			// The filter must run inside the OPTIONAL (it gates whether
			// a candidate counts as a match); it cannot move to the
			// tuple suffix, so the whole OPTIONAL falls back.
			rollback()
			return false
		}
		fns = append(fns, fn)
	}
	for i := inW; i < len(pl.schema); i++ {
		pl.nullable[i] = true
	}
	op := &vecOptional{pat: pat, inW: inW, nNew: nNew, conds: conds, fns: fns}
	pl.own(&op.out, len(pl.schema))
	pl.ops = append(pl.ops, op)
	return true
}

// lowerUnion lowers { A } UNION { B } ... at the root of the plan when
// every branch compiles to a complete vectorized pipeline (no tuple
// suffix). The union schema is the ordered union of the branch
// schemas; a variable missing from any branch — or nullable inside one
// — is nullable in the union.
func (c *evalCtx) lowerUnion(pl *vecPlan, branches []*sparql.Group, colOf map[string]int) bool {
	brPlans := make([]*vecPlan, 0, len(branches))
	for _, br := range branches {
		bp := c.buildVecPlan(br, pl.bs)
		if bp == nil || len(bp.rest) != 0 {
			return false
		}
		brPlans = append(brPlans, bp)
	}
	u := &vecUnion{}
	for _, bp := range brPlans {
		for _, name := range bp.schema {
			if _, ok := colOf[name]; !ok {
				colOf[name] = len(pl.schema)
				pl.schema = append(pl.schema, name)
				pl.nullable = append(pl.nullable, false)
			}
		}
	}
	for ci, name := range pl.schema {
		for _, bp := range brPlans {
			bc := -1
			for j, s := range bp.schema {
				if s == name {
					bc = j
					break
				}
			}
			if bc < 0 || bp.nullable[bc] {
				pl.nullable[ci] = true
				break
			}
		}
	}
	for _, bp := range brPlans {
		srcOf := make([]int, len(pl.schema))
		for ci, name := range pl.schema {
			srcOf[ci] = -1
			for j, s := range bp.schema {
				if s == name {
					srcOf[ci] = j
					break
				}
			}
		}
		u.branches = append(u.branches, vecUnionBranch{ops: bp.ops, srcOf: srcOf})
		// The branch pipelines run under the outer plan; their constants
		// refresh through the outer plan's subPats walk.
		for _, op := range bp.ops {
			if pat := op.pattern(); pat != nil {
				pl.subPats = append(pl.subPats, pat)
			}
		}
		pl.subPats = append(pl.subPats, bp.subPats...)
		pl.outs = append(pl.outs, bp.outs...)
	}
	pl.own(&u.out, len(pl.schema))
	pl.ops = append(pl.ops, u)
	return true
}

// vecWhere runs the hybrid path for whereSolutions: the vectorized
// prefix enumerates ID batches, each row is decoded to a Binding at
// the bridge, and the remaining tuple steps (paths, BIND, …) run on it
// unchanged. budget is the downstream row budget (a pushed-down LIMIT;
// <= 0 = unbounded): batches are clamped to it so a satisfied LIMIT
// stops the pipeline without materializing — or guard-charging — the
// rest of a full batch. Returns handled=false when the group has no
// vectorized plan (caller falls back to the pure tuple path).
func (c *evalCtx) vecWhere(g *sparql.Group, budget int, yield func(Binding) error) (bool, error) {
	pl := c.vecPlanFor(g)
	if pl == nil || pl.busy {
		return false, nil
	}
	err := pl.runWithBudget(c, budget, func(b *colbatch) error {
		for r := 0; r < b.n; r++ {
			bind := make(Binding, len(pl.schema))
			for i, name := range pl.schema {
				if id := b.cols[i][r]; id != rdf.Unbound {
					bind[name] = c.graph.TermOf(id)
				}
			}
			if err := runSteps(c, pl.rest, 0, bind, yield); err != nil {
				return err
			}
		}
		return nil
	})
	return true, err
}

// vecSelect is the fully-columnar SELECT fast path: the entire WHERE
// clause runs vectorized (no tuple suffix) and the projection is plain
// variables (or *), so solutions never materialize as Bindings —
// DISTINCT, ORDER BY, the incremental row cap, and LIMIT pushdown
// operate on ID rows, and only surviving rows decode to terms. ORDER
// BY sorts row indices over ID-resident keys (the comparator reads
// terms straight from the dictionary), and ORDER BY + LIMIT pushes down
// into a bounded top-K heap. Returns ok=false when any SELECT pipeline
// stage below would behave differently, and the caller runs the
// regular path.
func (c *evalCtx) vecSelect(q *sparql.Query, rowCap, earlyCap int) (*Results, bool, error) {
	pl := c.vecPlanFor(q.Where)
	if pl == nil || pl.busy || len(pl.rest) != 0 {
		return nil, false, nil
	}

	// Projection columns. colIdx -1 = variable absent from the schema
	// (projected but never bound — nil cells, like the tuple path).
	star := q.Star || len(q.Items) == 0
	if star {
		// SELECT * discovers variables from the solutions on the tuple
		// path, omitting one that is never bound; with nullable columns
		// the two could diverge — decline and take the hybrid path.
		for _, nb := range pl.nullable {
			if nb {
				return nil, false, nil
			}
		}
	}
	var vars []string
	var colIdx []int
	if star {
		for _, v := range pl.schema {
			if !strings.Contains(v, ":") && !strings.HasPrefix(v, "#") {
				vars = append(vars, v)
			}
		}
		sort.Strings(vars)
	} else {
		for _, it := range q.Items {
			if it.Expr != nil {
				return nil, false, nil
			}
			vars = append(vars, it.Var)
		}
	}
	colIdx = make([]int, len(vars))
	for i, v := range vars {
		colIdx[i] = -1
		for j, s := range pl.schema {
			if s == v {
				colIdx[i] = j
				break
			}
		}
	}

	// ORDER BY lowering: every criterion must be a plain variable, so
	// the sort keys stay ID-resident. A key that is not projected gets
	// an extra slot in the materialized row; with DISTINCT such hidden
	// keys could make dedup order-sensitive, so that combination
	// declines. A criterion over a never-bound variable compares equal
	// everywhere and is dropped.
	type sortCond struct {
		pos  int
		desc bool
	}
	var sortConds []sortCond
	rowW := len(colIdx)
	ordered := len(q.OrderBy) > 0
	for _, oc := range q.OrderBy {
		ev, ok := oc.Expr.(sparql.EVar)
		if !ok {
			return nil, false, nil
		}
		sc := -1
		for j, s := range pl.schema {
			if s == ev.Name {
				sc = j
				break
			}
		}
		if sc < 0 {
			continue
		}
		pos := -1
		for i, ci := range colIdx {
			if ci == sc {
				pos = i
				break
			}
		}
		if pos < 0 {
			if q.Distinct {
				return nil, false, nil
			}
			pos = rowW
			rowW++
			colIdx = append(colIdx, sc) // hidden sort slot
		}
		sortConds = append(sortConds, sortCond{pos: pos, desc: oc.Desc})
	}
	nProj := len(vars)

	// LIMIT pushdown: without ORDER BY the stream can stop at
	// OFFSET+LIMIT surviving rows (with DISTINCT the dedup happens
	// before accumulation). With ORDER BY every row must be seen, but
	// ORDER BY + LIMIT keeps only a bounded top-K heap of rows when the
	// bound is at most maxTopK.
	stopAt := -1
	if q.Limit >= 0 && !ordered {
		stopAt = q.Offset + q.Limit
	}
	budget := -1
	if stopAt >= 0 && !q.Distinct {
		budget = stopAt
	}
	topK := -1
	if ordered && q.Limit >= 0 && !q.Distinct && earlyCap < 0 {
		if bound := q.Offset + q.Limit; bound <= maxTopK {
			topK = bound
		}
	}

	// Accumulated ID rows live in one flat slab, rowW IDs per row slot —
	// no per-row allocation, pointer-free for the collector. ORDER BY
	// works on a slot permutation; unordered queries read slots in
	// arrival order.
	var (
		buf     []rdf.ID // nAcc*rowW flat row storage (+1 scratch slot with top-K)
		seqs    []int64  // per-slot arrival sequence (ordered only)
		order   []int    // heap / sort permutation of row slots (ordered only)
		nAcc    int
		seq     int64
		scratch = -1 // slot reused for rejected top-K probes
	)
	if topK > 0 {
		buf = make([]rdf.ID, (topK+1)*rowW)
		seqs = make([]int64, topK+1)
		order = make([]int, 0, topK)
		scratch = topK
	}
	// less is a total order on row slots: the ORDER BY key order
	// (orderCmp, as on the tuple path) with the arrival sequence as the
	// final tiebreak — sorting by it equals the tuple path's stable sort.
	term := func(id rdf.ID) rdf.Term {
		if id == rdf.Unbound {
			return nil
		}
		return c.graph.TermOf(id)
	}
	less := func(a, b int) bool {
		pa, pb := a*rowW, b*rowW
		for _, sc := range sortConds {
			ia, ib := buf[pa+sc.pos], buf[pb+sc.pos]
			if ia == ib {
				continue // same term, or both unbound
			}
			if cmp := orderCmp(term(ia), term(ib), sc.desc); cmp != 0 {
				return cmp < 0
			}
		}
		return seqs[a] < seqs[b]
	}
	var seen map[string]bool
	if q.Distinct {
		seen = map[string]bool{}
	}
	var keyBuf []byte
	stopWhere := c.trace.startPhase(phaseWhere)
	err := pl.runWithBudget(c, budget, func(b *colbatch) error {
		for r := 0; r < b.n; r++ {
			if q.Distinct {
				keyBuf = keyBuf[:0]
				for _, ci := range colIdx[:nProj] {
					var id rdf.ID // nullable columns hold 0 = unbound
					if ci >= 0 {
						id = b.cols[ci][r]
					}
					keyBuf = append(keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
				}
				if seen[string(keyBuf)] {
					continue
				}
				seen[string(keyBuf)] = true
			}
			if topK >= 0 && nAcc >= topK {
				if topK == 0 {
					continue
				}
				// Heap full: replace the max (heap root) when the new row
				// sorts strictly before it, else drop the new row. The
				// seq tiebreak makes this keep exactly the rows the full
				// stable sort would. The probe writes into a scratch slot
				// and swaps slot numbers on replacement, so rejected rows
				// cost no allocation and no copy.
				base := scratch * rowW
				for i, ci := range colIdx {
					buf[base+i] = 0
					if ci >= 0 {
						buf[base+i] = b.cols[ci][r]
					}
				}
				seqs[scratch] = seq
				seq++
				if !less(scratch, order[0]) {
					continue
				}
				order[0], scratch = scratch, order[0]
				// Sift down.
				cur := 0
				for {
					l, rr := 2*cur+1, 2*cur+2
					big := cur
					if l < len(order) && less(order[big], order[l]) {
						big = l
					}
					if rr < len(order) && less(order[big], order[rr]) {
						big = rr
					}
					if big == cur {
						break
					}
					order[cur], order[big] = order[big], order[cur]
					cur = big
				}
				continue
			}
			slot := nAcc
			nAcc++
			if topK >= 0 {
				base := slot * rowW
				for i, ci := range colIdx {
					buf[base+i] = 0
					if ci >= 0 {
						buf[base+i] = b.cols[ci][r]
					}
				}
				seqs[slot] = seq
			} else {
				for _, ci := range colIdx {
					var id rdf.ID
					if ci >= 0 {
						id = b.cols[ci][r]
					}
					buf = append(buf, id)
				}
				if ordered {
					seqs = append(seqs, seq)
				}
			}
			seq++
			if ordered {
				order = append(order, slot)
				if topK >= 0 {
					// Sift up: keep the max at the root.
					cur := len(order) - 1
					for cur > 0 {
						parent := (cur - 1) / 2
						if !less(order[parent], order[cur]) {
							break
						}
						order[parent], order[cur] = order[cur], order[parent]
						cur = parent
					}
				}
			}
			if earlyCap >= 0 && nAcc > earlyCap {
				return errResultRows(rowCap)
			}
			if stopAt >= 0 && nAcc >= stopAt {
				return errStop
			}
		}
		return nil
	})
	stopWhere()
	if err != nil && err != errStop {
		return nil, true, err
	}

	if ordered {
		stopSort := c.trace.startPhase(phaseSort)
		sort.Slice(order, func(i, j int) bool { return less(order[i], order[j]) })
		stopSort()
		c.eng.vecSortQueries.Add(1)
		if topK >= 0 {
			c.eng.vecTopKQueries.Add(1)
		}
		if c.trace != nil {
			c.trace.vecSortRows += int64(len(order))
			if topK >= 0 {
				c.trace.vecSortTopK = int64(topK)
			}
		}
	}

	// OFFSET / LIMIT over ID row slots, then decode only the survivors.
	nOut := nAcc
	if ordered {
		nOut = len(order)
	}
	start := 0
	if q.Offset > 0 {
		start = q.Offset
		if start > nOut {
			start = nOut
		}
	}
	if q.Limit >= 0 && nOut-start > q.Limit {
		nOut = start + q.Limit
	}
	res := &Results{Vars: vars, Form: sparql.FormSelect}
	stopProj := c.trace.startPhase(phaseProj)
	if nOut > start {
		// One term slab for the whole result set; each row is a subslice.
		flat := make([]rdf.Term, (nOut-start)*nProj)
		res.Rows = make([][]rdf.Term, 0, nOut-start)
		for k := start; k < nOut; k++ {
			slot := k
			if ordered {
				slot = order[k]
			}
			base := slot * rowW
			cells := flat[:nProj:nProj]
			flat = flat[nProj:]
			for i := 0; i < nProj; i++ {
				if id := buf[base+i]; id != rdf.Unbound {
					cells[i] = c.graph.TermOf(id)
				}
			}
			res.Rows = append(res.Rows, cells)
		}
	}
	stopProj()
	// SELECT * over zero solutions reports no variables on the tuple
	// path (vars are discovered from solutions); match it.
	if star && len(res.Rows) == 0 {
		res.Vars = nil
	}
	return res, true, nil
}
