package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// Binding is one query solution: a mapping from variable names to RDF
// terms. Absent variables are unbound.
//
// Bindings are copy-on-extend and immutable once yielded: evaluation
// steps share the incoming map untouched and clone it exactly once
// when they bind new variables (see extend), so a solution may be
// retained — in result sets, MINUS/subquery materializations, VALUES
// joins — without further copying. Any consumer adding a variable
// must clone first.
type Binding map[string]rdf.Term

func (b Binding) clone() Binding {
	out := make(Binding, len(b)+2)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Engine executes SciSPARQL queries and updates over a dataset.
type Engine struct {
	Dataset *rdf.Dataset
	Funcs   *Registry

	// DisableJoinOrder turns off cost-based reordering of triple
	// patterns (the ablation knob for experiment A1).
	DisableJoinOrder bool

	// BatchSize is set by the batch-vs-tuple equivalence tests only:
	// rows per batch, 0 for rdf.DefaultBatchSize, negative for the
	// tuple-at-a-time reference the batch results are compared with.
	BatchSize int

	// Vectorized-execution counters, exposed through VecStats.
	vecQueries     atomic.Int64
	vecBatches     atomic.Int64
	vecRows        atomic.Int64
	vecAggQueries  atomic.Int64
	vecAggGroups   atomic.Int64
	vecSortQueries atomic.Int64
	vecTopKQueries atomic.Int64
}

// effBatchSize resolves the BatchSize knob: rows per batch, or <= 0
// meaning batch execution is off.
func (e *Engine) effBatchSize() int {
	if e.BatchSize == 0 {
		return rdf.DefaultBatchSize
	}
	return e.BatchSize
}

// maxTopK is the largest OFFSET+LIMIT bound for which ORDER BY keeps a
// bounded heap instead of sorting every row.
const maxTopK = 4096

// VecStats reports cumulative vectorized-execution activity: how many
// query executions used a batch plan, how many batches/rows flowed out
// of vectorized pipelines, and how often the batch-native aggregation
// and ORDER BY fast paths engaged.
type VecStats struct {
	Queries int64
	Batches int64
	Rows    int64

	// AggQueries/AggGroups count batch-native aggregation runs and the
	// groups they produced; SortQueries counts vectorized ORDER BY
	// sorts, TopKQueries the subset that used the bounded top-K heap.
	AggQueries  int64
	AggGroups   int64
	SortQueries int64
	TopKQueries int64
}

// VecStats returns a snapshot of the engine's vectorized-execution
// counters.
func (e *Engine) VecStats() VecStats {
	return VecStats{
		Queries:     e.vecQueries.Load(),
		Batches:     e.vecBatches.Load(),
		Rows:        e.vecRows.Load(),
		AggQueries:  e.vecAggQueries.Load(),
		AggGroups:   e.vecAggGroups.Load(),
		SortQueries: e.vecSortQueries.Load(),
		TopKQueries: e.vecTopKQueries.Load(),
	}
}

// New creates an engine over a dataset with the standard function
// library registered.
func New(ds *rdf.Dataset) *Engine {
	e := &Engine{Dataset: ds, Funcs: NewRegistry()}
	registerStdlib(e.Funcs)
	return e
}

// ForeignFunc is the Go signature of a foreign function (§4.4):
// existing computational libraries are interfaced by wrapping entry
// points in this form and registering them. args is valid only for the
// duration of the call: MAP and CONDENSE reuse one slice across the
// elements of an array, so a function that keeps argument terms copies
// them out rather than keeping the slice.
type ForeignFunc func(args []rdf.Term) (rdf.Term, error)

// Function describes a callable: exactly one of Builtin, ExprBody,
// QueryBody or Foreign is set.
type Function struct {
	Name   string
	Params []string // for ExprBody/QueryBody

	MinArgs int
	MaxArgs int // -1 = variadic

	Builtin   func(c *evalCtx, args []rdf.Term) (rdf.Term, error)
	ExprBody  sparql.Expression
	QueryBody *sparql.Query
	Foreign   ForeignFunc

	// Cost is the optimizer's per-call cost estimate, as foreign
	// functions may declare (§4.4). It is advisory.
	Cost float64
}

// UserAggregate is a DEFINE AGGREGATE definition: an expression over a
// parameter bound to the 1-D array of the group's values.
type UserAggregate struct {
	Name  string
	Param string
	Expr  sparql.Expression
}

// Registry holds user-defined functions, foreign functions and user
// aggregates.
type Registry struct {
	mu   sync.RWMutex
	fns  map[string]*Function
	aggs map[string]*UserAggregate
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fns: map[string]*Function{}, aggs: map[string]*UserAggregate{}}
}

// Register installs a function under its name (replacing any previous
// definition, as re-running a DEFINE does in SSDM).
func (r *Registry) Register(f *Function) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fns[f.Name] = f
}

// RegisterForeign wraps a Go function as a SciSPARQL foreign function.
func (r *Registry) RegisterForeign(name string, minArgs, maxArgs int, fn ForeignFunc) {
	r.Register(&Function{Name: name, MinArgs: minArgs, MaxArgs: maxArgs, Foreign: fn})
}

// RegisterForeignCost additionally declares a per-call cost estimate
// (§4.4): the optimizer evaluates expensive filters after cheap ones
// when both are applicable at the same plan position.
func (r *Registry) RegisterForeignCost(name string, minArgs, maxArgs int, cost float64, fn ForeignFunc) {
	r.Register(&Function{Name: name, MinArgs: minArgs, MaxArgs: maxArgs, Cost: cost, Foreign: fn})
}

// RegisterAggregate installs a user aggregate.
func (r *Registry) RegisterAggregate(a *UserAggregate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.aggs[a.Name] = a
}

// Lookup finds a function by name.
func (r *Registry) Lookup(name string) (*Function, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.fns[name]
	return f, ok
}

// LookupAggregate finds a user aggregate by name.
func (r *Registry) LookupAggregate(name string) (*UserAggregate, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.aggs[name]
	return a, ok
}

// Names lists registered function names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.fns))
	for n := range r.fns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// evalCtx carries the evaluation environment of one query: engine,
// dataset view and the active graph.
type evalCtx struct {
	eng   *Engine
	graph *rdf.Graph
	depth int // functional-view recursion guard

	// guard is the cancellation/budget state of this execution; nil
	// imposes nothing. Derived contexts share it so deadlines and
	// budgets span nested views, GRAPH clauses and subqueries.
	guard *queryGuard

	// named restricts which named graphs GRAPH clauses may range over
	// (the FROM NAMED dataset clause, §3.3.4); nil means all.
	named map[rdf.IRI]bool

	// plans memoizes compiled group step sequences for the duration of
	// one query execution (see compiledSteps); derived contexts share
	// it so nested groups compile once per query, not once per input
	// binding.
	plans map[planKey][]step

	// snaps pins one immutable snapshot per live graph for the duration
	// of this execution: the first read through any graph (the FROM
	// resolution, each GRAPH clause target) freezes its version, and
	// every later step of the same execution — including nested views
	// and subqueries, which share the map — reads that same version. A
	// query therefore never observes a concurrent writer's commit
	// mid-execution, and never blocks behind one.
	snaps map[*rdf.Graph]*rdf.Graph

	// vecPlans memoizes vectorized prefixes per (group, graph), like
	// plans. Unlike plans it is NOT shared with derived contexts: a run
	// of a vecPlan writes columns borrowed from colPool for that run alone,
	// so sharing across nested evaluations (views, subqueries) would need
	// re-entrancy handling everywhere; per-ctx plans keep the busy flag
	// a rare safety net.
	// nil entries are cached too, so unvectorizable groups are analyzed
	// once per execution.
	vecPlans map[planKey]*vecPlan

	// trace collects the execution profile when this query runs under
	// EXPLAIN ANALYZE; nil — the common case — keeps the hot paths at a
	// single pointer check.
	trace *traceCollector
}

const maxCallDepth = 64

func (c *evalCtx) child() (*evalCtx, error) {
	if c.depth+1 > maxCallDepth {
		return nil, errf("function call nesting exceeds %d (recursive view?)", maxCallDepth)
	}
	return &evalCtx{eng: c.eng, graph: c.graph, depth: c.depth + 1, named: c.named, plans: c.ensurePlans(), snaps: c.ensureSnaps(), guard: c.guard, trace: c.trace}, nil
}

// ensureSnaps lazily creates the snapshot-pin map; derived contexts
// share it so one execution observes one version per graph.
func (c *evalCtx) ensureSnaps() map[*rdf.Graph]*rdf.Graph {
	if c.snaps == nil {
		c.snaps = make(map[*rdf.Graph]*rdf.Graph, 2)
	}
	return c.snaps
}

// pin resolves a live graph to this execution's pinned snapshot of it,
// freezing the current version on first use. Already-frozen graphs
// (and nil) pass through.
func (c *evalCtx) pin(g *rdf.Graph) *rdf.Graph {
	if g == nil || g.Frozen() {
		return g
	}
	m := c.ensureSnaps()
	if sg, ok := m[g]; ok {
		return sg
	}
	sg := g.Snapshot()
	m[g] = sg
	return sg
}

// Results is a solution table: ordered column names plus rows aligned
// with them. Unbound cells are nil.
type Results struct {
	Vars []string
	Rows [][]rdf.Term

	// Bool is the ASK verdict when the query was an ASK.
	Bool bool
	// Graph is the constructed graph for CONSTRUCT/DESCRIBE.
	Graph *rdf.Graph
	// Form echoes the query form.
	Form sparql.Form
}

// Len returns the number of solution rows.
func (r *Results) Len() int { return len(r.Rows) }

// Get returns the value of a named column in row i (nil when unbound
// or absent).
func (r *Results) Get(i int, name string) rdf.Term {
	for j, v := range r.Vars {
		if v == name {
			return r.Rows[i][j]
		}
	}
	return nil
}

// String renders a compact table for diagnostics.
func (r *Results) String() string {
	if r.Form == sparql.FormAsk {
		return fmt.Sprintf("ASK -> %v", r.Bool)
	}
	s := fmt.Sprintf("%v (%d rows)", r.Vars, len(r.Rows))
	return s
}
