package engine

import (
	"fmt"
	"strings"

	"scisparql/internal/sparql"
)

// Explain renders the execution strategy the engine would use for a
// query: the step sequence of each group with filter placement after
// pushdown, the cost-ordered triple patterns of each BGP with their
// fan-out estimates, and the solution modifiers. It is the analogue of
// the translation walk-through of dissertation §5.1.2/§5.4.5, exposed
// for users.
func (e *Engine) Explain(q *sparql.Query) string {
	var sb strings.Builder
	switch q.Form {
	case sparql.FormSelect:
		sb.WriteString("SELECT")
		if q.Distinct {
			sb.WriteString(" DISTINCT")
		}
	case sparql.FormAsk:
		sb.WriteString("ASK")
	case sparql.FormConstruct:
		sb.WriteString("CONSTRUCT")
	case sparql.FormDescribe:
		sb.WriteString("DESCRIBE")
	}
	sb.WriteByte('\n')
	ctx := &evalCtx{eng: e, graph: e.activeGraph(q)}
	if q.Where != nil {
		e.explainGroup(ctx, q.Where, &sb, 1)
	}
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&sb, "group by %d expression(s)\n", len(q.GroupBy))
	}
	if len(q.OrderBy) > 0 {
		fmt.Fprintf(&sb, "order by %d criterion(s)\n", len(q.OrderBy))
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, "limit %d\n", q.Limit)
	}
	return sb.String()
}

// ExplainString parses and explains a query.
func (e *Engine) ExplainString(src string) (string, error) {
	q, err := sparql.ParseQuery(src)
	if err != nil {
		return "", err
	}
	return e.Explain(q), nil
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

func (e *Engine) explainGroup(ctx *evalCtx, g *sparql.Group, sb *strings.Builder, depth int) {
	steps := compileGroup(g)
	for _, st := range steps {
		indent(sb, depth)
		switch v := st.(type) {
		case *bgpStep:
			pats := v.patterns
			if !e.DisableJoinOrder && len(pats) > 1 {
				pats = ctx.orderPatterns(pats, Binding{})
			}
			fmt.Fprintf(sb, "bgp (%d patterns, cost-ordered):\n", len(pats))
			bound := map[string]bool{}
			for _, tp := range pats {
				indent(sb, depth+1)
				fmt.Fprintf(sb, "%-50s est %.1f\n", tp.String(), ctx.estimateCost(tp, bound))
				for _, vv := range patternVars(nil, tp) {
					bound[vv] = true
				}
			}
		case *filterStep:
			fmt.Fprintf(sb, "filter %s (pushed to earliest sound position)\n", v.cond.String())
		case *bindStep:
			fmt.Fprintf(sb, "bind ?%s := %s\n", v.name, v.expr.String())
		case *optionalStep:
			sb.WriteString("optional (left join):\n")
			e.explainGroup(ctx, v.group, sb, depth+1)
		case *unionStep:
			fmt.Fprintf(sb, "union of %d branches:\n", len(v.branches))
			for _, br := range v.branches {
				e.explainGroup(ctx, br, sb, depth+1)
			}
		case *minusStep:
			sb.WriteString("minus (anti-join):\n")
			e.explainGroup(ctx, v.group, sb, depth+1)
		case *graphStep:
			if v.clause.Var != "" {
				fmt.Fprintf(sb, "graph ?%s (iterate named graphs):\n", v.clause.Var)
			} else {
				fmt.Fprintf(sb, "graph %v:\n", v.clause.Name)
			}
			e.explainGroup(ctx, v.clause.Group, sb, depth+1)
		case *subgroupStep:
			sb.WriteString("group:\n")
			e.explainGroup(ctx, v.group, sb, depth+1)
		case *subSelectStep:
			sb.WriteString("subquery (evaluated bottom-up, joined on projected vars)\n")
		case *valuesStep:
			fmt.Fprintf(sb, "values (%d rows over %v)\n", len(v.data.Rows), v.data.Vars)
		default:
			fmt.Fprintf(sb, "%T\n", st)
		}
	}
}
