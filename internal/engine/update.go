package engine

import (
	"context"
	"fmt"

	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// StagedUpdate is an update statement evaluated but not yet committed:
// its WHERE clause has run, its mutations are staged in a private
// graph version (invisible to readers), and the effective physical
// operations are available for write-ahead logging. The caller decides
// the outcome — Commit publishes the staged version atomically, Abort
// discards it leaving the dataset untouched. Exactly one of the two
// must be called: a triple-mutating stage holds the target graph's
// writer lock until then.
type StagedUpdate struct {
	count  int
	ops    []rdf.Op
	graph  rdf.IRI
	commit func()
	abort  func()
	done   bool
}

// Count returns the number of triples the statement affects (will
// affect, before Commit).
func (u *StagedUpdate) Count() int { return u.count }

// Ops returns the effective physical operations in application order
// (only populated when staging was asked to record; empty for DEFINE
// and CLEAR statements, which add and delete no triples).
func (u *StagedUpdate) Ops() []rdf.Op { return u.ops }

// Graph returns the target graph name ("" = default graph).
func (u *StagedUpdate) Graph() rdf.IRI { return u.graph }

// Commit makes the staged mutations visible atomically.
func (u *StagedUpdate) Commit() {
	if u.done {
		return
	}
	u.done = true
	if u.commit != nil {
		u.commit()
	}
}

// Abort discards the staged mutations.
func (u *StagedUpdate) Abort() {
	if u.done {
		return
	}
	u.done = true
	if u.abort != nil {
		u.abort()
	}
}

// Update executes a data-modifying or defining statement. LOAD is not
// handled here — file access policy belongs to the database manager
// (package core), which dispatches it before delegating.
func (e *Engine) Update(st sparql.Statement) (int, error) {
	return e.UpdateContext(context.Background(), st)
}

// UpdateContext is Update under a context: the WHERE evaluation of
// DELETE/INSERT honors cancellation and panics are trapped into
// ErrInternal. The mutation phase itself is not interruptible — once
// solutions are materialized, the statement commits atomically (one
// published graph version) rather than half-applying.
func (e *Engine) UpdateContext(ctx context.Context, st sparql.Statement) (int, error) {
	return e.UpdateLimits(ctx, st, Limits{})
}

// UpdateLimits is UpdateContext under per-statement limits: the
// timeout and bindings budget guard the WHERE evaluation exactly as
// they guard a query (MaxResultRows is ignored — updates produce no
// result rows).
func (e *Engine) UpdateLimits(ctx context.Context, st sparql.Statement, lim Limits) (int, error) {
	u, err := e.UpdateStagedLimits(ctx, st, lim, false)
	if err != nil {
		return 0, err
	}
	u.Commit()
	return u.Count(), nil
}

// UpdateStagedLimits evaluates an update statement and stages its
// mutations without committing them — the hook the durable write path
// hangs on: the manager appends the staged operations (record=true) to
// the write-ahead log first and calls Commit only once the log accepts
// them, or Abort on log failure, so memory never runs ahead of the
// log. An error return means nothing was staged and there is nothing
// to end.
func (e *Engine) UpdateStagedLimits(ctx context.Context, st sparql.Statement, lim Limits, record bool) (u *StagedUpdate, err error) {
	defer trapPanic("update", &err)
	ctx, cancel := limitCtx(ctx, lim)
	defer cancel()
	gq := newQueryGuard(ctx, lim)
	if err := gq.checkCtx(); err != nil {
		return nil, err
	}
	switch v := st.(type) {
	case *sparql.InsertData:
		return e.stageInsertData(v, record)
	case *sparql.DeleteData:
		return e.stageDeleteData(v, record)
	case *sparql.Modify:
		return e.stageModify(gq, v, record)
	case *sparql.Clear:
		return e.stageClear(v), nil
	case *sparql.DefineFunction:
		f, err := buildFunction(v)
		if err != nil {
			return nil, err
		}
		return &StagedUpdate{commit: func() { e.Funcs.Register(f) }}, nil
	case *sparql.DefineAggregate:
		a := &UserAggregate{Name: v.Name, Param: v.Param, Expr: v.Expr}
		return &StagedUpdate{commit: func() { e.Funcs.RegisterAggregate(a) }}, nil
	default:
		return nil, fmt.Errorf("engine: unsupported update %T", st)
	}
}

func (e *Engine) targetGraph(name rdf.IRI) *rdf.Graph {
	if name == "" {
		return e.Dataset.Default
	}
	return e.Dataset.Named(name, true)
}

// groundTriple instantiates a template triple against a binding,
// renaming template blank nodes through the supplied map.
func groundTriple(g *rdf.Graph, tp sparql.TriplePattern, b Binding, blanks map[string]rdf.Blank) (s, p, o rdf.Term, ok bool) {
	resolve := func(n sparql.Node) rdf.Term {
		if n.IsVar() {
			return b[n.Var]
		}
		if bl, isBlank := n.Term.(rdf.Blank); isBlank {
			fresh, seen := blanks[string(bl)]
			if !seen {
				fresh = g.NewBlank()
				blanks[string(bl)] = fresh
			}
			return fresh
		}
		return n.Term
	}
	s = resolve(tp.S)
	o = resolve(tp.O)
	switch pv := tp.Path.(type) {
	case sparql.PathIRI:
		p = pv.IRI
	case sparql.PathVar:
		p = b[pv.Name]
	}
	if s == nil || p == nil || o == nil {
		return nil, nil, nil, false
	}
	if _, isIRI := p.(rdf.IRI); !isIRI {
		return nil, nil, nil, false
	}
	return s, p, o, true
}

// staged wraps a graph transaction as a StagedUpdate.
func staged(tx *rdf.Tx, graph rdf.IRI) *StagedUpdate {
	return &StagedUpdate{count: tx.Changed(), ops: tx.Ops(), graph: graph, commit: tx.Commit, abort: tx.Abort}
}

func (e *Engine) stageInsertData(v *sparql.InsertData, record bool) (*StagedUpdate, error) {
	g := e.targetGraph(v.Graph)
	tx := g.Begin()
	tx.Record(record)
	blanks := map[string]rdf.Blank{}
	for _, tp := range v.Triples {
		s, p, o, ok := groundTriple(g, tp, nil, blanks)
		if !ok {
			tx.Abort()
			return nil, fmt.Errorf("engine: non-ground triple in INSERT DATA")
		}
		tx.Add(s, p.(rdf.IRI), o)
	}
	return staged(tx, v.Graph), nil
}

func (e *Engine) stageDeleteData(v *sparql.DeleteData, record bool) (*StagedUpdate, error) {
	g := e.targetGraph(v.Graph)
	tx := g.Begin()
	tx.Record(record)
	for _, tp := range v.Triples {
		if tp.S.IsVar() || tp.O.IsVar() {
			tx.Abort()
			return nil, fmt.Errorf("engine: non-ground triple in DELETE DATA")
		}
		pi, ok := tp.Path.(sparql.PathIRI)
		if !ok {
			tx.Abort()
			return nil, fmt.Errorf("engine: non-IRI predicate in DELETE DATA")
		}
		if _, isBlank := tp.S.Term.(rdf.Blank); isBlank {
			tx.Abort()
			return nil, fmt.Errorf("engine: blank nodes not allowed in DELETE DATA")
		}
		tx.Delete(tp.S.Term, pi.IRI, tp.O.Term)
	}
	return staged(tx, v.Graph), nil
}

// stageModify implements DELETE/INSERT ... WHERE: solutions are fully
// materialized against the pre-statement state first, then deletions
// and insertions are staged — the standard SPARQL Update snapshot
// semantics, with the whole statement becoming visible as one version.
func (e *Engine) stageModify(gq *queryGuard, v *sparql.Modify, record bool) (*StagedUpdate, error) {
	g := e.targetGraph(v.Graph)
	ctx := &evalCtx{eng: e, graph: g, guard: gq}
	var sols []Binding
	if v.Where != nil {
		err := ctx.evalGroup(v.Where, Binding{}, func(b Binding) error {
			sols = append(sols, b)
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		sols = []Binding{{}}
	}
	tx := g.Begin()
	tx.Record(record)
	for _, b := range sols {
		for _, tp := range v.DeleteTpl {
			// Template blanks never match in DELETE templates (per spec
			// they are illegal; we treat them as non-matching).
			s, p, o, ok := groundTriple(g, tp, b, map[string]rdf.Blank{})
			if !ok {
				continue
			}
			tx.Delete(s, p.(rdf.IRI), o)
		}
	}
	for _, b := range sols {
		blanks := map[string]rdf.Blank{}
		for _, tp := range v.InsertTpl {
			s, p, o, ok := groundTriple(g, tp, b, blanks)
			if !ok {
				continue
			}
			tx.Add(s, p.(rdf.IRI), o)
		}
	}
	return staged(tx, v.Graph), nil
}

// stageClear stages CLEAR DEFAULT / CLEAR GRAPH: the count is taken at
// stage time and the drop happens at Commit (the manager holds the
// operation lock across both, so no writer slips in between).
func (e *Engine) stageClear(v *sparql.Clear) *StagedUpdate {
	var (
		g    *rdf.Graph
		name rdf.IRI
	)
	if v.Default {
		g = e.Dataset.Default
	} else {
		name = v.Graph
		g = e.Dataset.Named(v.Graph, false)
	}
	if g == nil || g.Size() == 0 {
		// Nothing to clear; dropping an empty named graph still removes
		// the name.
		u := &StagedUpdate{graph: name}
		if !v.Default {
			u.commit = func() { e.Dataset.DropNamed(name) }
		}
		return u
	}
	u := &StagedUpdate{count: g.Size(), graph: name}
	if v.Default {
		u.commit = func() { g.Clear() }
	} else {
		u.commit = func() { e.Dataset.DropNamed(name) }
	}
	return u
}

// buildFunction validates a DEFINE FUNCTION into a registrable
// parameterized view or expression function (§4.2).
func buildFunction(v *sparql.DefineFunction) (*Function, error) {
	f := &Function{
		Name:    v.Name,
		Params:  v.Params,
		MinArgs: len(v.Params),
		MaxArgs: len(v.Params),
	}
	switch {
	case v.Expr != nil:
		f.ExprBody = v.Expr
	case v.Body != nil:
		if len(v.Body.Items) != 1 {
			return nil, fmt.Errorf("engine: functional view %s must project exactly one variable", v.Name)
		}
		f.QueryBody = v.Body
	default:
		return nil, fmt.Errorf("engine: empty DEFINE FUNCTION body")
	}
	return f, nil
}
