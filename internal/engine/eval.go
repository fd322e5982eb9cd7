package engine

import (
	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// eval computes the value of an expression under a binding. A nil
// result with a non-nil error is a SPARQL expression error (§3.6);
// callers decide whether it collapses to false (FILTER) or unbound
// (projection).
func (c *evalCtx) eval(e sparql.Expression, b Binding) (rdf.Term, error) {
	switch v := e.(type) {
	case sparql.EVar:
		t, ok := b[v.Name]
		if !ok {
			return nil, errf("unbound variable ?%s", v.Name)
		}
		return t, nil
	case sparql.ELit:
		return v.Term, nil
	case sparql.EUn:
		return c.evalUnary(v, b)
	case sparql.EBin:
		return c.evalBinary(v, b)
	case sparql.ECall:
		return c.evalCall(v, b)
	case sparql.EFuncRef:
		return rdf.String{Val: v.Name}, nil
	case sparql.EHole:
		return nil, errf("placeholder '_' outside a closure-forming call")
	case sparql.EIn:
		return c.evalIn(v, b)
	case sparql.EExists:
		return c.evalExists(v, b)
	case sparql.ESubscript:
		return c.evalSubscript(v, b)
	case sparql.EAgg:
		return nil, errf("aggregate %s outside grouping context", v.Func)
	default:
		return nil, errf("unsupported expression %T", e)
	}
}

func (c *evalCtx) evalUnary(v sparql.EUn, b Binding) (rdf.Term, error) {
	switch v.Op {
	case "!":
		return opNot(c.eval(v.E, b))
	case "-":
		return opNeg(c.eval(v.E, b))
	default:
		return nil, errf("unknown unary operator %q", v.Op)
	}
}

func (c *evalCtx) evalBinary(v sparql.EBin, b Binding) (rdf.Term, error) {
	if v.Op == "||" || v.Op == "&&" {
		l, lerr := c.evalBool(v.L, b)
		r, rerr := c.evalBool(v.R, b)
		return logic(v.Op == "&&", l, lerr, r, rerr)
	}
	l, err := c.eval(v.L, b)
	if err != nil {
		return nil, err
	}
	r, err := c.eval(v.R, b)
	if err != nil {
		return nil, err
	}
	return binaryOp(v.Op)(l, r)
}

func (c *evalCtx) evalBool(e sparql.Expression, b Binding) (bool, error) {
	return truth(c.eval(e, b))
}

func (c *evalCtx) evalIn(v sparql.EIn, b Binding) (rdf.Term, error) {
	x, err := c.eval(v.E, b)
	if err != nil {
		return nil, err
	}
	found := false
	for _, item := range v.List {
		y, err := c.eval(item, b)
		if err != nil {
			continue // per SPARQL, errors in the list are skipped
		}
		eq, err := Equals(x, y)
		if err == nil && eq {
			found = true
			break
		}
	}
	if v.Not {
		found = !found
	}
	return rdf.Boolean(found), nil
}

func (c *evalCtx) evalExists(v sparql.EExists, b Binding) (rdf.Term, error) {
	found := false
	err := c.evalGroup(v.Group, b, func(Binding) error {
		found = true
		return errStop
	})
	if err != nil && err != errStop {
		return nil, err
	}
	if v.Not {
		found = !found
	}
	return rdf.Boolean(found), nil
}

// evalSubscript implements the array dereference of §4.1.1: 1-based
// Matlab-style subscripts over an array value, producing a scalar when
// every dimension is fixed and a derived array view otherwise.
func (c *evalCtx) evalSubscript(v sparql.ESubscript, b Binding) (rdf.Term, error) {
	view, allSingle, err := c.subscriptView(v, b)
	if err != nil {
		return nil, err
	}
	if allSingle {
		// Fully subscripted: return the scalar element.
		n, err := view.At(make([]int, view.NDims())...)
		if err != nil {
			return nil, &exprError{msg: err.Error()}
		}
		return rdf.FromNumber(n), nil
	}
	return rdf.NewArray(view), nil
}

// subscriptView resolves the base expression and the subscripts into a
// derived array view. allSingle reports whether every dimension was
// fixed by a single index (a scalar dereference).
func (c *evalCtx) subscriptView(v sparql.ESubscript, b Binding) (view *array.Array, allSingle bool, err error) {
	baseT, err := c.eval(v.Base, b)
	if err != nil {
		return nil, false, err
	}
	at, ok := baseT.(rdf.Array)
	if !ok {
		return nil, false, errf("subscript applied to %v", termKindOf(baseT))
	}
	a := at.A
	ranges := make([]array.Range, 0, len(v.Subs))
	allSingle = len(v.Subs) == a.NDims()
	evalInt := func(e sparql.Expression) (int, bool, error) {
		if e == nil {
			return 0, false, nil
		}
		t, err := c.eval(e, b)
		if err != nil {
			return 0, false, err
		}
		n, ok := rdf.Numeric(t)
		if !ok {
			return 0, false, errf("array subscript must be numeric, got %v", termKindOf(t))
		}
		return int(n.Intval()), true, nil
	}
	for _, s := range v.Subs {
		if s.Single {
			idx, _, err := evalInt(s.Index)
			if err != nil {
				return nil, false, err
			}
			ranges = append(ranges, array.Idx(idx-1)) // 1-based -> 0-based
			continue
		}
		allSingle = false
		lo, hasLo, err := evalInt(s.Lo)
		if err != nil {
			return nil, false, err
		}
		hi, hasHi, err := evalInt(s.Hi)
		if err != nil {
			return nil, false, err
		}
		step, hasStep, err := evalInt(s.Step)
		if err != nil {
			return nil, false, err
		}
		r := array.Range{Lo: 0, Hi: -1, Step: 1}
		if hasLo {
			r.Lo = lo - 1
		}
		if hasHi {
			r.Hi = hi // inclusive 1-based == exclusive 0-based
		}
		if hasStep {
			r.Step = step
		}
		ranges = append(ranges, r)
	}
	view, err = a.Deref(ranges)
	if err != nil {
		return nil, false, &exprError{msg: err.Error()}
	}
	return view, allSingle, nil
}

// collectSubscriptChunks walks an expression, finds array dereferences
// over proxied arrays, and records the chunks their views touch. It is
// the gathering half of the batched APR of §6.2.4: the engine
// accumulates a bag of proxy accesses across solutions and resolves it
// with few back-end interactions instead of one per element.
func (c *evalCtx) collectSubscriptChunks(e sparql.Expression, b Binding, pending map[*array.Proxy][]int) {
	if e == nil {
		return
	}
	switch v := e.(type) {
	case sparql.ESubscript:
		c.collectSubscriptChunks(v.Base, b, pending)
		for _, s := range v.Subs {
			c.collectSubscriptChunks(s.Index, b, pending)
			c.collectSubscriptChunks(s.Lo, b, pending)
			c.collectSubscriptChunks(s.Hi, b, pending)
			c.collectSubscriptChunks(s.Step, b, pending)
		}
		view, _, err := c.subscriptView(v, b)
		if err != nil {
			return // evaluation will surface the error
		}
		if p := view.Base.Proxy; p != nil {
			pending[p] = append(pending[p], view.TouchedChunks(p.ChunkElems)...)
		}
	case sparql.EBin:
		c.collectSubscriptChunks(v.L, b, pending)
		c.collectSubscriptChunks(v.R, b, pending)
	case sparql.EUn:
		c.collectSubscriptChunks(v.E, b, pending)
	case sparql.ECall:
		for _, a := range v.Args {
			c.collectSubscriptChunks(a, b, pending)
		}
	case sparql.EAgg:
		c.collectSubscriptChunks(v.Arg, b, pending)
	case sparql.EIn:
		c.collectSubscriptChunks(v.E, b, pending)
		for _, a := range v.List {
			c.collectSubscriptChunks(a, b, pending)
		}
	}
}

// containsSubscript reports whether the expression contains an array
// dereference.
func containsSubscript(e sparql.Expression) bool {
	if e == nil {
		return false
	}
	switch v := e.(type) {
	case sparql.ESubscript:
		return true
	case sparql.EBin:
		return containsSubscript(v.L) || containsSubscript(v.R)
	case sparql.EUn:
		return containsSubscript(v.E)
	case sparql.ECall:
		for _, a := range v.Args {
			if containsSubscript(a) {
				return true
			}
		}
	case sparql.EAgg:
		return containsSubscript(v.Arg)
	case sparql.EIn:
		if containsSubscript(v.E) {
			return true
		}
		for _, a := range v.List {
			if containsSubscript(a) {
				return true
			}
		}
	}
	return false
}

// evalCall dispatches a function application: built-in, user-defined
// view, foreign function — or closure formation when any argument is
// the placeholder '_'.
func (c *evalCtx) evalCall(v sparql.ECall, b Binding) (rdf.Term, error) {
	// Special forms with non-strict argument evaluation.
	switch v.Name {
	case "bound":
		if len(v.Args) != 1 {
			return nil, errf("bound takes one variable")
		}
		ev, ok := v.Args[0].(sparql.EVar)
		if !ok {
			return nil, errf("bound takes a variable")
		}
		_, isBound := b[ev.Name]
		return rdf.Boolean(isBound), nil
	case "coalesce":
		for _, a := range v.Args {
			if t, err := c.eval(a, b); err == nil && t != nil {
				return t, nil
			}
		}
		return nil, errf("coalesce: no argument evaluated")
	case "if":
		if len(v.Args) != 3 {
			return nil, errf("if takes three arguments")
		}
		cond, err := c.evalBool(v.Args[0], b)
		if err != nil {
			return nil, err
		}
		if cond {
			return c.eval(v.Args[1], b)
		}
		return c.eval(v.Args[2], b)
	}
	// Closure formation (§4.3): evaluate the non-hole arguments now,
	// capture them lexically, and return a function value.
	hasHole := false
	for _, a := range v.Args {
		if _, ok := a.(sparql.EHole); ok {
			hasHole = true
			break
		}
	}
	if hasHole {
		cl := Closure{Fn: v.Name, Bound: make([]rdf.Term, len(v.Args))}
		for i, a := range v.Args {
			if _, ok := a.(sparql.EHole); ok {
				cl.Holes = append(cl.Holes, i)
				continue
			}
			t, err := c.eval(a, b)
			if err != nil {
				return nil, err
			}
			cl.Bound[i] = t
		}
		return cl, nil
	}
	args := make([]rdf.Term, len(v.Args))
	for i, a := range v.Args {
		t, err := c.eval(a, b)
		if err != nil {
			return nil, err
		}
		args[i] = t
	}
	return c.apply(v.Name, args)
}

// apply invokes a named function with evaluated arguments.
func (c *evalCtx) apply(name string, args []rdf.Term) (rdf.Term, error) {
	if bf, ok := builtins[name]; ok {
		return bf.call(c, name, args)
	}
	f, ok := c.eng.Funcs.Lookup(name)
	if !ok {
		return nil, errf("unknown function %q", name)
	}
	return c.applyFunction(f, args)
}

func (bf builtin) call(c *evalCtx, name string, args []rdf.Term) (rdf.Term, error) {
	if len(args) < bf.min || (bf.max >= 0 && len(args) > bf.max) {
		return nil, errf("%s: wrong number of arguments (%d)", name, len(args))
	}
	return bf.fn(c, args)
}

// bindParams binds f's parameters to args in env, a fresh map when env
// is nil.
func bindParams(f *Function, args []rdf.Term, env Binding) (Binding, error) {
	if len(args) != len(f.Params) {
		return nil, errf("%s expects %d arguments, got %d", f.Name, len(f.Params), len(args))
	}
	if env == nil {
		env = make(Binding, len(args))
	}
	for i, p := range f.Params {
		env[p] = args[i]
	}
	return env, nil
}

func (c *evalCtx) applyFunction(f *Function, args []rdf.Term) (rdf.Term, error) {
	switch {
	case f.Builtin != nil:
		return f.Builtin(c, args)
	case f.Foreign != nil:
		if len(args) < f.MinArgs || (f.MaxArgs >= 0 && len(args) > f.MaxArgs) {
			return nil, errf("%s: wrong number of arguments (%d)", f.Name, len(args))
		}
		t, err := f.Foreign(args)
		if err != nil {
			return nil, &exprError{msg: f.Name + ": " + err.Error()}
		}
		return t, nil
	case f.ExprBody != nil:
		env, err := bindParams(f, args, nil)
		if err != nil {
			return nil, err
		}
		child, err := c.child()
		if err != nil {
			return nil, err
		}
		return child.eval(f.ExprBody, env)
	case f.QueryBody != nil:
		// Functional view (§4.2): run the parameterized query with the
		// parameters pre-bound; the value is the single projected
		// variable of the first solution (DAPLEX-style: a function call
		// in scalar position takes one element of the result bag). The
		// env is fresh per call: execSelect may keep its input binding.
		env, err := bindParams(f, args, nil)
		if err != nil {
			return nil, err
		}
		child, err := c.child()
		if err != nil {
			return nil, err
		}
		q := f.QueryBody
		if len(q.Items) != 1 || q.Items[0].Expr != nil && q.Items[0].Var == "" {
			return nil, errf("%s: functional view must project exactly one variable", f.Name)
		}
		res, err := child.eng.execSelect(child, q, env)
		if err != nil {
			return nil, err
		}
		if res.Len() == 0 {
			return nil, errf("%s: view produced no solutions", f.Name)
		}
		return res.Rows[0][0], nil
	default:
		return nil, errf("%s: empty function definition", f.Name)
	}
}

// funcApp is a function value (closure, IRI or name) resolved for a run
// of calls — one MAP or CONDENSE over an array, or one apply() — the
// core of the second-order functions. The name is looked up once, so a
// DEFINE that lands mid-run takes effect at the next run. A closure
// fills its holes into one reused argument slice, and an
// expression-bodied function evaluates under one derived context and
// one parameter binding, rebound by every call.
type funcApp struct {
	c     *evalCtx
	name  string
	bf    builtin   // the built-in, when f is nil
	f     *Function // the registry entry
	holes []int     // a closure's open positions in full
	full  []rdf.Term

	body *evalCtx // an ExprBody's call context and parameters, made
	env  Binding  // by the first call
}

func (c *evalCtx) resolveFuncValue(fv rdf.Term) (*funcApp, error) {
	name, cl, err := funcValueName(fv)
	if err != nil {
		return nil, err
	}
	fa := &funcApp{c: c, name: name}
	if cl != nil {
		fa.holes, fa.full = cl.Holes, append([]rdf.Term(nil), cl.Bound...)
	}
	if bf, ok := builtins[name]; ok {
		fa.bf = bf
	} else if fa.f, ok = c.eng.Funcs.Lookup(name); !ok {
		return nil, errf("unknown function %q", name)
	}
	return fa, nil
}

// call applies the function value to positional arguments. The caller
// may reuse args once call returns.
func (fa *funcApp) call(args []rdf.Term) (rdf.Term, error) {
	if fa.holes != nil {
		if len(args) != len(fa.holes) {
			return nil, errf("closure over %s has %d holes, %d values supplied", fa.name, len(fa.holes), len(args))
		}
		for i, h := range fa.holes {
			fa.full[h] = args[i]
		}
		args = fa.full
	}
	switch {
	case fa.f == nil:
		return fa.bf.call(fa.c, fa.name, args)
	case fa.f.ExprBody == nil:
		return fa.c.applyFunction(fa.f, args)
	}
	env, err := bindParams(fa.f, args, fa.env)
	if err != nil {
		return nil, err
	}
	if fa.body == nil {
		// One derived context per run: the call-depth guard still
		// counts this level, once.
		if fa.body, err = fa.c.child(); err != nil {
			return nil, err
		}
		fa.env = env
	}
	return fa.body.eval(fa.f.ExprBody, env)
}
