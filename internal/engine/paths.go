package engine

import (
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
)

// evalPath enumerates (subject, object) pairs connected by a property
// path (§3.4) in the active graph. A nil endpoint is unbound.
// Sequence and alternative follow bag semantics; transitive repeats
// (*, +, ?) follow the W3C distinct-node semantics via BFS.
func (c *evalCtx) evalPath(p sparql.Path, s, o rdf.Term, yield func(s, o rdf.Term) error) error {
	switch v := p.(type) {
	case sparql.PathIRI:
		var ierr error
		c.graph.MatchTermsCtx(c.matchCtx(), s, v.IRI, o, func(ms, _, mo rdf.Term) bool {
			if err := yield(ms, mo); err != nil {
				ierr = err
				return false
			}
			return true
		})
		return ierr
	case sparql.PathInverse:
		return c.evalPath(v.P, o, s, func(ms, mo rdf.Term) error {
			return yield(mo, ms)
		})
	case sparql.PathAlt:
		if err := c.evalPath(v.L, s, o, yield); err != nil {
			return err
		}
		return c.evalPath(v.R, s, o, yield)
	case sparql.PathSeq:
		if s != nil || o == nil {
			// Forward: expand L from s, then R to o.
			return c.evalPath(v.L, s, nil, func(ms, mid rdf.Term) error {
				return c.evalPath(v.R, mid, o, func(_, mo rdf.Term) error {
					return yield(ms, mo)
				})
			})
		}
		// Only the object is bound: expand R backwards first.
		return c.evalPath(v.R, nil, o, func(mid, mo rdf.Term) error {
			return c.evalPath(v.L, nil, mid, func(ms, _ rdf.Term) error {
				return yield(ms, mo)
			})
		})
	case sparql.PathRepeat:
		return c.evalRepeat(v, s, o, yield)
	case sparql.PathNegated:
		return c.evalNegated(v, s, o, yield)
	case sparql.PathVar:
		return errf("variable predicate inside a property path")
	default:
		return errf("unsupported path %T", p)
	}
}

// evalRepeat handles p*, p+ and p?.
func (c *evalCtx) evalRepeat(v sparql.PathRepeat, s, o rdf.Term, yield func(s, o rdf.Term) error) error {
	if !v.Unbounded {
		// p? : zero or one step.
		if v.Min != 0 {
			return errf("malformed path repetition")
		}
		if s != nil {
			if o == nil || s.Key() == o.Key() {
				if err := yield(s, s); err != nil {
					return err
				}
			}
			return c.evalPath(v.P, s, o, yield)
		}
		if o != nil {
			if err := yield(o, o); err != nil {
				return err
			}
			return c.evalPath(v.P, s, o, yield)
		}
		// Both unbound: every node matches at zero steps.
		for _, t := range c.allNodes() {
			if err := yield(t, t); err != nil {
				return err
			}
		}
		return c.evalPath(v.P, nil, nil, yield)
	}

	switch {
	case s != nil:
		return c.bfs(v, s, false, func(reached rdf.Term) error {
			if o != nil && reached.Key() != o.Key() {
				return nil
			}
			return yield(s, reached)
		})
	case o != nil:
		return c.bfs(v, o, true, func(reached rdf.Term) error {
			return yield(reached, o)
		})
	default:
		// Both unbound: start a BFS from every node in the graph.
		for _, start := range c.allNodes() {
			if err := c.bfs(v, start, false, func(reached rdf.Term) error {
				return yield(start, reached)
			}); err != nil {
				return err
			}
		}
		return nil
	}
}

// bfs walks the transitive closure of the inner path from start.
// Inverse=true walks backwards. Each reachable node is reported once;
// with Min==0 the start itself is reported first.
func (c *evalCtx) bfs(v sparql.PathRepeat, start rdf.Term, inverse bool, visit func(rdf.Term) error) error {
	seen := map[string]bool{start.Key(): true}
	if v.Min == 0 {
		if err := visit(start); err != nil {
			return err
		}
	}
	frontier := []rdf.Term{start}
	for len(frontier) > 0 {
		// Transitive expansion is the classic runaway: poll the guard
		// once per frontier level and account each reached node below.
		if err := c.guard.checkCtx(); err != nil {
			return err
		}
		var next []rdf.Term
		for _, node := range frontier {
			var from, to rdf.Term
			if inverse {
				to = node
			} else {
				from = node
			}
			var ierr error
			err := c.evalPath(v.P, from, to, func(ms, mo rdf.Term) error {
				reached := mo
				if inverse {
					reached = ms
				}
				if seen[reached.Key()] {
					return nil
				}
				if err := c.guard.step(); err != nil {
					return err
				}
				seen[reached.Key()] = true
				next = append(next, reached)
				return visit(reached)
			})
			if err != nil {
				return err
			}
			if ierr != nil {
				return ierr
			}
		}
		frontier = next
	}
	return nil
}

// evalNegated matches edges whose predicate is outside the negated
// property set: forward edges against the Fwd set and reversed edges
// against the Inv set (W3C negated property sets).
func (c *evalCtx) evalNegated(v sparql.PathNegated, s, o rdf.Term, yield func(s, o rdf.Term) error) error {
	inSet := func(set []rdf.IRI, p rdf.Term) bool {
		pi, ok := p.(rdf.IRI)
		if !ok {
			return false
		}
		for _, x := range set {
			if x == pi {
				return true
			}
		}
		return false
	}
	if len(v.Fwd) > 0 || len(v.Inv) == 0 {
		var ierr error
		c.graph.MatchTermsCtx(c.matchCtx(), s, nil, o, func(ms, mp, mo rdf.Term) bool {
			if inSet(v.Fwd, mp) {
				return true
			}
			if err := yield(ms, mo); err != nil {
				ierr = err
				return false
			}
			return true
		})
		if ierr != nil {
			return ierr
		}
	}
	if len(v.Inv) > 0 {
		var ierr error
		c.graph.MatchTermsCtx(c.matchCtx(), o, nil, s, func(ms, mp, mo rdf.Term) bool {
			if inSet(v.Inv, mp) {
				return true
			}
			if err := yield(mo, ms); err != nil {
				ierr = err
				return false
			}
			return true
		})
		if ierr != nil {
			return ierr
		}
	}
	return nil
}

// allNodes lists every term occurring in subject or object position of
// the active graph (the domain of zero-length paths).
func (c *evalCtx) allNodes() []rdf.Term {
	seen := map[string]rdf.Term{}
	c.graph.MatchTermsCtx(c.matchCtx(), nil, nil, nil, func(s, _, o rdf.Term) bool {
		seen[s.Key()] = s
		seen[o.Key()] = o
		return true
	})
	out := make([]rdf.Term, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	return out
}
