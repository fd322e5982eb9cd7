// Package loader implements SSDM's data loaders (dissertation §5.3):
// consolidation of nested RDF collections into resident numeric
// arrays, consolidation of RDF Data Cube datasets, and resolution of
// file links to proxied arrays in external storage.
//
// Consolidation rewrites the graph in place: the 13-triple encoding of
// a 2x2 matrix (§2.3.5.1) collapses to a single triple whose value is
// an array term, drastically shrinking the graph and making the data
// available to SciSPARQL's array operations. Each rewrite reads the
// graph as it stands and applies its edits as one transaction.
package loader

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"scisparql/internal/array"
	"scisparql/internal/rdf"
	"scisparql/internal/storage"
)

// triple is a collected (s,p,o) for deferred deletion.
type triple struct{ s, p, o rdf.Term }

// rewrite is the edits of one consolidation, collected while it reads
// the graph and applied together.
type rewrite struct{ dels, adds []triple }

// apply commits the rewrite to g as one transaction, every delete before
// every add: a delete after an add the transaction logged would fold the
// log into its state.
func (rw *rewrite) apply(g *rdf.Graph) {
	if len(rw.dels) == 0 && len(rw.adds) == 0 {
		return
	}
	tx := g.Begin()
	for _, t := range rw.dels {
		tx.Delete(t.s, t.p, t.o)
	}
	for _, t := range rw.adds {
		tx.Add(t.s, t.p, t.o)
	}
	tx.Commit()
}

// ConsolidateCollections finds triples whose object is the head of a
// well-formed nested numeric RDF collection, replaces the object with
// a consolidated array term and removes the list-cell triples
// (§5.3.2). Every list is read from the graph as given, so a list that
// two triples share becomes an array for each. It returns the number
// of arrays consolidated.
func ConsolidateCollections(g *rdf.Graph) (int, error) {
	var rw rewrite
	for _, cand := range collectionCandidates(g) {
		arr, cells, ok := parseNumericList(g, cand.o)
		if !ok {
			continue
		}
		rw.dels = append(append(rw.dels, cand), cells...)
		rw.adds = append(rw.adds, triple{cand.s, cand.p, rdf.NewArray(arr)})
	}
	rw.apply(g)
	return len(rw.adds), nil
}

// collectionCandidates returns the triples whose object has an rdf:first
// and whose predicate is not a list predicate, in the order Triples
// yields them: the objects are rdf:first's subjects, their triples come
// from the OSP index, and a graph without rdf:first costs one lookup.
func collectionCandidates(g *rdf.Graph) []triple {
	first, ok := g.Lookup(rdf.RDFFirst)
	if !ok {
		return nil
	}
	rest, _ := g.Lookup(rdf.RDFRest)
	var ids []rdf.Triple
	g.Match(0, first, 0, func(head rdf.Triple) bool {
		g.Match(0, 0, head.S, func(t rdf.Triple) bool {
			if t.P != first && t.P != rest {
				ids = append(ids, t)
			}
			return true
		})
		return true
	})
	rdf.SortSPO(ids)
	ids = slices.Compact(ids)
	out := make([]triple, len(ids))
	for i, t := range ids {
		out[i] = triple{g.TermOf(t.S), g.TermOf(t.P), g.TermOf(t.O)}
	}
	return out
}

func hasFirst(g *rdf.Graph, node rdf.Term) bool {
	found := false
	g.MatchTerms(node, rdf.RDFFirst, nil, func(_, _, _ rdf.Term) bool {
		found = true
		return false
	})
	return found
}

// listShape is the recursive value of a parsed collection: either a
// scalar or a nested slice.
type listVal struct {
	scalar *array.Number
	sub    []listVal
}

// parseNumericList walks an rdf:first/rdf:rest chain (recursively for
// nested lists) and, if every leaf is numeric and the nesting is
// rectangular, produces the consolidated array plus the cell triples
// to delete.
func parseNumericList(g *rdf.Graph, head rdf.Term) (*array.Array, []triple, bool) {
	val, cells, ok := parseListVal(g, head, 0)
	if !ok || val.sub == nil {
		return nil, nil, false
	}
	shape, ok := shapeOf(listVal{sub: val.sub})
	if !ok || len(shape) == 0 {
		return nil, nil, false
	}
	allInt := true
	var flat []array.Number
	var flatten func(v listVal) bool
	flatten = func(v listVal) bool {
		if v.scalar != nil {
			if v.scalar.T != array.Int {
				allInt = false
			}
			flat = append(flat, *v.scalar)
			return true
		}
		for _, s := range v.sub {
			if !flatten(s) {
				return false
			}
		}
		return true
	}
	if !flatten(listVal{sub: val.sub}) {
		return nil, nil, false
	}
	var arr *array.Array
	var err error
	if allInt {
		data := make([]int64, len(flat))
		for i, n := range flat {
			data[i] = n.I
		}
		arr, err = array.FromInts(data, shape...)
	} else {
		data := make([]float64, len(flat))
		for i, n := range flat {
			data[i] = n.Float()
		}
		arr, err = array.FromFloats(data, shape...)
	}
	if err != nil {
		return nil, nil, false
	}
	return arr, cells, true
}

const maxListDepth = 16

func parseListVal(g *rdf.Graph, node rdf.Term, depth int) (listVal, []triple, bool) {
	if depth > maxListDepth {
		return listVal{}, nil, false
	}
	var items []listVal
	var cells []triple
	cur := node
	for {
		if cur == rdf.RDFNil {
			break
		}
		var first rdf.Term
		nFirst := 0
		g.MatchTerms(cur, rdf.RDFFirst, nil, func(_, _, o rdf.Term) bool {
			first = o
			nFirst++
			return true
		})
		var rest rdf.Term
		nRest := 0
		g.MatchTerms(cur, rdf.RDFRest, nil, func(_, _, o rdf.Term) bool {
			rest = o
			nRest++
			return true
		})
		if nFirst != 1 || nRest != 1 {
			return listVal{}, nil, false
		}
		cells = append(cells, triple{cur, rdf.RDFFirst, first}, triple{cur, rdf.RDFRest, rest})

		if n, ok := rdf.Numeric(first); ok {
			if _, isBool := first.(rdf.Boolean); isBool {
				return listVal{}, nil, false
			}
			items = append(items, listVal{scalar: &n})
		} else if hasFirst(g, first) {
			sub, subCells, ok := parseListVal(g, first, depth+1)
			if !ok {
				return listVal{}, nil, false
			}
			items = append(items, listVal{sub: sub.sub})
			cells = append(cells, subCells...)
		} else {
			return listVal{}, nil, false
		}
		cur = rest
	}
	if len(items) == 0 {
		return listVal{}, nil, false
	}
	return listVal{sub: items}, cells, true
}

// shapeOf checks rectangularity and returns the nested shape.
func shapeOf(v listVal) ([]int, bool) {
	if v.scalar != nil {
		return nil, true
	}
	n := len(v.sub)
	first, ok := shapeOf(v.sub[0])
	if !ok {
		return nil, false
	}
	for _, s := range v.sub[1:] {
		sh, ok := shapeOf(s)
		if !ok || !array.ShapeEqual(sh, first) {
			return nil, false
		}
	}
	return append([]int{n}, first...), true
}

// --- file links (§5.3.1) ---

// ResolveFileLinks replaces typed literals "N"^^ssdm:fileLink (N being
// an array ID in the given back-end) with proxied array terms, so that
// externally stored arrays join the graph without their data being
// read (the mediator scenario of chapter 6), all in one transaction or
// none when a link fails. It returns the number of links resolved.
func ResolveFileLinks(g *rdf.Graph, backend storage.Backend) (int, error) {
	var links []rdf.Triple
	g.Match(0, 0, 0, func(t rdf.Triple) bool {
		if l, ok := g.TermOf(t.O).(rdf.Typed); ok && l.Datatype == rdf.SSDMFileLink {
			links = append(links, t)
		}
		return true
	})
	opened := map[rdf.ID]rdf.Term{}
	var rw rewrite
	for _, l := range links {
		link := g.TermOf(l.O)
		lex := link.(rdf.Typed).Lexical
		if _, ok := opened[l.O]; !ok {
			id, err := strconv.ParseInt(lex, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("loader: bad file link %q", lex)
			}
			a, err := backend.Open(id)
			if err != nil {
				return 0, fmt.Errorf("loader: file link %q: %w", lex, err)
			}
			opened[l.O] = rdf.NewArray(a)
		}
		s, p := g.TermOf(l.S), g.TermOf(l.P)
		rw.dels = append(rw.dels, triple{s, p, link})
		rw.adds = append(rw.adds, triple{s, p, opened[l.O]})
	}
	rw.apply(g)
	return len(links), nil
}

// DropProxyCaches discards the chunk caches of every proxied array in
// the graph, so that benchmark iterations measure cold reads.
func DropProxyCaches(g *rdf.Graph) int {
	n := 0
	g.Triples(func(_, _, o rdf.Term) bool {
		if at, ok := o.(rdf.Array); ok && at.A.Base.Proxy != nil {
			at.A.Base.Proxy.DropCache()
			n++
		}
		return true
	})
	return n
}

// --- RDF Data Cube consolidation (§5.3.3) ---

// ConsolidateDataCube consolidates every qb:DataSet in the graph: the
// observations are replaced by one dense array per measure attached
// directly to the dataset node, plus per-dimension index dictionaries:
//
//	?ds <measureIRI>  [array]            (one per measure)
//	?ds ssdm:dimension [ qb:dimension <dimIRI> ;
//	                     qb:order N ;
//	                     ssdm:index [dictionary array or collection] ]
//
// Every dataset is read from the graph as given, and all of them are
// rewritten in one transaction. It returns the number of datasets
// consolidated.
func ConsolidateDataCube(g *rdf.Graph) (int, error) {
	// The datasets in the order Match yields them, so that the labels a
	// load mints do not depend on map order.
	var datasets []rdf.Term
	seen := map[string]bool{}
	g.MatchTerms(nil, rdf.QBDataSetProp, nil, func(_, _, ds rdf.Term) bool {
		if k := ds.Key(); !seen[k] {
			seen[k], datasets = true, append(datasets, ds)
		}
		return true
	})
	var rw rewrite
	n := 0
	for _, ds := range datasets {
		if consolidateOneCube(g, ds, &rw) {
			n++
		}
	}
	rw.apply(g)
	return n, nil
}

// consolidateOneCube adds dataset ds's rewrite to rw and reports whether
// it has one.
func consolidateOneCube(g *rdf.Graph, ds rdf.Term, rw *rewrite) bool {
	dims, measures := cubeStructure(g, ds)
	if len(dims) == 0 || len(measures) == 0 {
		return false
	}
	// Collect observations.
	var obs []rdf.Term
	g.MatchTerms(nil, rdf.QBDataSetProp, ds, func(o, _, _ rdf.Term) bool {
		obs = append(obs, o)
		return true
	})
	if len(obs) == 0 {
		return false
	}
	// Dimension dictionaries: distinct values per dimension, sorted by
	// key for determinism (numeric dimensions sort numerically).
	dicts := make([][]rdf.Term, len(dims))
	index := make([]map[string]int, len(dims))
	for d, dimIRI := range dims {
		seen := map[string]rdf.Term{}
		for _, o := range obs {
			g.MatchTerms(o, dimIRI, nil, func(_, _, v rdf.Term) bool {
				seen[v.Key()] = v
				return true
			})
		}
		vals := make([]rdf.Term, 0, len(seen))
		for _, v := range seen {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(i, j int) bool {
			ni, iok := rdf.Numeric(vals[i])
			nj, jok := rdf.Numeric(vals[j])
			if iok && jok {
				return ni.Float() < nj.Float()
			}
			return vals[i].Key() < vals[j].Key()
		})
		dicts[d] = vals
		index[d] = map[string]int{}
		for i, v := range vals {
			index[d][v.Key()] = i
		}
	}
	shape := make([]int, len(dims))
	for d := range dims {
		shape[d] = len(dicts[d])
		if shape[d] == 0 {
			return false
		}
	}
	// One dense float array per measure.
	arrays := make([]*array.Array, len(measures))
	for m := range measures {
		arrays[m] = array.NewFloat(shape...)
	}
	for _, o := range obs {
		idx := make([]int, len(dims))
		ok := true
		for d, dimIRI := range dims {
			found := false
			g.MatchTerms(o, dimIRI, nil, func(_, _, v rdf.Term) bool {
				if i, has := index[d][v.Key()]; has {
					idx[d] = i
					found = true
				}
				return false
			})
			if !found {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for m, measIRI := range measures {
			g.MatchTerms(o, measIRI, nil, func(_, _, v rdf.Term) bool {
				if num, isNum := rdf.Numeric(v); isNum {
					arrays[m].SetAt(num, idx...)
				}
				return false
			})
		}
	}
	// Remove observation triples.
	for _, o := range obs {
		g.MatchTerms(o, nil, nil, func(s, p, v rdf.Term) bool {
			rw.dels = append(rw.dels, triple{s, p, v})
			return true
		})
	}
	// Attach consolidated arrays and dimension dictionaries.
	for m, measIRI := range measures {
		rw.adds = append(rw.adds, triple{ds, measIRI, rdf.NewArray(arrays[m])})
	}
	for d, dimIRI := range dims {
		bn := g.NewBlank()
		rw.adds = append(rw.adds,
			triple{ds, rdf.SSDMDimension, bn},
			triple{bn, rdf.QBDimensionProp, dimIRI},
			triple{bn, rdf.QBOrderProp, rdf.Integer(int64(d + 1))})
		if dict, ok := numericDict(dicts[d]); ok {
			rw.adds = append(rw.adds, triple{bn, rdf.SSDMIndex, rdf.NewArray(dict)})
		} else {
			// Non-numeric dictionary: keep the values as an ordered RDF
			// collection.
			rw.adds = append(rw.adds, triple{bn, rdf.SSDMIndex, buildCollection(g, rw, dicts[d])})
		}
	}
	return true
}

// cubeStructure finds the dimension and measure properties of a
// dataset through qb:structure/qb:component, ordered by qb:order when
// present.
func cubeStructure(g *rdf.Graph, ds rdf.Term) (dims, measures []rdf.IRI) {
	type comp struct {
		iri   rdf.IRI
		order int
		isDim bool
	}
	var comps []comp
	g.MatchTerms(ds, rdf.QBStructure, nil, func(_, _, dsd rdf.Term) bool {
		g.MatchTerms(dsd, rdf.QBComponent, nil, func(_, _, c rdf.Term) bool {
			entry := comp{order: 1 << 20}
			g.MatchTerms(c, rdf.QBDimensionProp, nil, func(_, _, p rdf.Term) bool {
				if iri, ok := p.(rdf.IRI); ok {
					entry.iri, entry.isDim = iri, true
				}
				return false
			})
			if entry.iri == "" {
				g.MatchTerms(c, rdf.QBMeasureProp, nil, func(_, _, p rdf.Term) bool {
					if iri, ok := p.(rdf.IRI); ok {
						entry.iri = iri
					}
					return false
				})
			}
			g.MatchTerms(c, rdf.QBOrderProp, nil, func(_, _, v rdf.Term) bool {
				if n, ok := rdf.Numeric(v); ok {
					entry.order = int(n.Intval())
				}
				return false
			})
			if entry.iri != "" {
				comps = append(comps, entry)
			}
			return true
		})
		return true
	})
	sort.SliceStable(comps, func(i, j int) bool { return comps[i].order < comps[j].order })
	for _, c := range comps {
		if c.isDim {
			dims = append(dims, c.iri)
		} else {
			measures = append(measures, c.iri)
		}
	}
	return dims, measures
}

func numericDict(vals []rdf.Term) (*array.Array, bool) {
	nums := make([]array.Number, len(vals))
	for i, v := range vals {
		n, ok := rdf.Numeric(v)
		if !ok {
			return nil, false
		}
		nums[i] = n
	}
	a, err := array.Vector(nums...)
	if err != nil {
		return nil, false
	}
	return a, true
}

// buildCollection adds to rw the RDF collection of vals, its cells
// blank nodes of g, and returns its head.
func buildCollection(g *rdf.Graph, rw *rewrite, vals []rdf.Term) rdf.Term {
	if len(vals) == 0 {
		return rdf.RDFNil
	}
	head := rdf.Term(g.NewBlank())
	cur := head
	for i, v := range vals {
		rw.adds = append(rw.adds, triple{cur, rdf.RDFFirst, v})
		if i == len(vals)-1 {
			rw.adds = append(rw.adds, triple{cur, rdf.RDFRest, rdf.RDFNil})
		} else {
			next := g.NewBlank()
			rw.adds = append(rw.adds, triple{cur, rdf.RDFRest, next})
			cur = next
		}
	}
	return head
}
