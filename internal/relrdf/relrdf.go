// Package relrdf persists RDF-with-Arrays graphs in a relational
// database using the "partitioning by value type" schema — option (b)
// of the RDBMS-based RDF storage classification in dissertation
// §2.2.3, which SSDM supports. One triple table per object value type:
//
//	t_iri   (s TEXT, p TEXT, o TEXT)
//	t_blank (s TEXT, p TEXT, o TEXT)
//	t_str   (s TEXT, p TEXT, o TEXT, lang TEXT)
//	t_int   (s TEXT, p TEXT, o INT)
//	t_float (s TEXT, p TEXT, o DOUBLE)
//	t_bool  (s TEXT, p TEXT, o INT)
//	t_typed (s TEXT, p TEXT, o TEXT, dt TEXT)
//	t_array (s TEXT, p TEXT, aid INT)
//
// Array values go through an SSDM relational array back-end sharing
// the same database, so the whole RDF-with-Arrays dataset — metadata
// and bulk data — lives in one relational store (the back-end scenario
// of chapter 6).
//
// Subjects are encoded as "<iri>" / "_:label" keys; blank-node labels
// survive verbatim (they are only required to be graph-unique).
package relrdf

import (
	"fmt"
	"strings"
	"time"

	"scisparql/internal/rdf"
	"scisparql/internal/relstore"
	"scisparql/internal/storage/relbackend"
)

// Store couples a relational database with an array back-end inside it.
type Store struct {
	DB     *relstore.Database
	Arrays *relbackend.Backend
}

// New creates the triple tables (and the array back-end's tables) in
// db.
func New(db *relstore.Database) (*Store, error) {
	arrays, err := relbackend.New(db)
	if err != nil {
		return nil, err
	}
	stmts := []string{
		`CREATE TABLE t_iri (s TEXT, p TEXT, o TEXT)`,
		`CREATE TABLE t_blank (s TEXT, p TEXT, o TEXT)`,
		`CREATE TABLE t_str (s TEXT, p TEXT, o TEXT, lang TEXT)`,
		`CREATE TABLE t_int (s TEXT, p TEXT, o INT)`,
		`CREATE TABLE t_float (s TEXT, p TEXT, o DOUBLE)`,
		`CREATE TABLE t_bool (s TEXT, p TEXT, o INT)`,
		`CREATE TABLE t_typed (s TEXT, p TEXT, o TEXT, dt TEXT)`,
		`CREATE TABLE t_array (s TEXT, p TEXT, aid INT)`,
	}
	for _, st := range stmts {
		if _, err := db.Exec(st); err != nil {
			return nil, err
		}
	}
	return &Store{DB: db, Arrays: arrays}, nil
}

func nodeKey(t rdf.Term) (string, error) {
	switch v := t.(type) {
	case rdf.IRI:
		return "<" + string(v) + ">", nil
	case rdf.Blank:
		return "_:" + string(v), nil
	default:
		return "", fmt.Errorf("relrdf: %v cannot be a subject", t)
	}
}

func nodeFromKey(k string) (rdf.Term, error) {
	switch {
	case strings.HasPrefix(k, "<") && strings.HasSuffix(k, ">"):
		return rdf.IRI(k[1 : len(k)-1]), nil
	case strings.HasPrefix(k, "_:"):
		return rdf.Blank(k[2:]), nil
	default:
		return nil, fmt.Errorf("relrdf: corrupt node key %q", k)
	}
}

// SaveGraph writes every triple of g into the store (appending to
// whatever is already there), externalizing array values with the
// given chunk size in elements (0 = default).
func (st *Store) SaveGraph(g *rdf.Graph, chunkElems int) (int, error) {
	n := 0
	var err error
	g.Triples(func(s, p, o rdf.Term) bool {
		pi, ok := p.(rdf.IRI)
		if !ok {
			return true
		}
		var sk string
		if sk, err = nodeKey(s); err != nil {
			return false
		}
		pk := string(pi)
		sv, pv := relstore.Text(sk), relstore.Text(pk)
		switch v := o.(type) {
		case rdf.IRI:
			_, err = st.DB.Exec(`INSERT INTO t_iri VALUES (?, ?, ?)`, sv, pv, relstore.Text(string(v)))
		case rdf.Blank:
			_, err = st.DB.Exec(`INSERT INTO t_blank VALUES (?, ?, ?)`, sv, pv, relstore.Text(string(v)))
		case rdf.String:
			_, err = st.DB.Exec(`INSERT INTO t_str VALUES (?, ?, ?, ?)`, sv, pv,
				relstore.Text(v.Val), relstore.Text(v.Lang))
		case rdf.Integer:
			_, err = st.DB.Exec(`INSERT INTO t_int VALUES (?, ?, ?)`, sv, pv, relstore.I64(int64(v)))
		case rdf.Float:
			_, err = st.DB.Exec(`INSERT INTO t_float VALUES (?, ?, ?)`, sv, pv, relstore.F64(float64(v)))
		case rdf.Boolean:
			b := int64(0)
			if v {
				b = 1
			}
			_, err = st.DB.Exec(`INSERT INTO t_bool VALUES (?, ?, ?)`, sv, pv, relstore.I64(b))
		case rdf.DateTime:
			_, err = st.DB.Exec(`INSERT INTO t_typed VALUES (?, ?, ?, ?)`, sv, pv,
				relstore.Text(v.T.Format(time.RFC3339Nano)), relstore.Text(string(rdf.XSDDateTime)))
		case rdf.Typed:
			_, err = st.DB.Exec(`INSERT INTO t_typed VALUES (?, ?, ?, ?)`, sv, pv,
				relstore.Text(v.Lexical), relstore.Text(string(v.Datatype)))
		case rdf.Array:
			var aid int64
			if v.A.Base.Proxy != nil && v.A.IsWholeBase() {
				// Already externalized (possibly in this very store).
				aid = v.A.Base.Proxy.ArrayID
			} else {
				aid, err = st.Arrays.Store(v.A, chunkElems)
				if err != nil {
					return false
				}
			}
			_, err = st.DB.Exec(`INSERT INTO t_array VALUES (?, ?, ?)`, sv, pv, relstore.I64(aid))
		default:
			err = fmt.Errorf("relrdf: unsupported object %T", o)
		}
		if err != nil {
			return false
		}
		n++
		return true
	})
	return n, err
}

// LoadGraph reads every stored triple into g. Array values come back
// as lazy proxies over the store's array back-end.
func (st *Store) LoadGraph(g *rdf.Graph) (int, error) {
	n := 0
	tx := g.Begin()
	defer tx.Commit() // a failed load keeps the n triples read before the error
	load := func(table string, make func(row []relstore.Value) (rdf.Term, error)) error {
		res, err := st.DB.Exec(`SELECT * FROM ` + table)
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			s, err := nodeFromKey(row[0].Str())
			if err != nil {
				return err
			}
			o, err := make(row)
			if err != nil {
				return err
			}
			tx.Add(s, rdf.IRI(row[1].Str()), o)
			n++
		}
		return nil
	}
	steps := []struct {
		table string
		make  func(row []relstore.Value) (rdf.Term, error)
	}{
		{"t_iri", func(r []relstore.Value) (rdf.Term, error) { return rdf.IRI(r[2].Str()), nil }},
		{"t_blank", func(r []relstore.Value) (rdf.Term, error) { return rdf.Blank(r[2].Str()), nil }},
		{"t_str", func(r []relstore.Value) (rdf.Term, error) {
			return rdf.String{Val: r[2].Str(), Lang: r[3].Str()}, nil
		}},
		{"t_int", func(r []relstore.Value) (rdf.Term, error) { return rdf.Integer(r[2].Int()), nil }},
		{"t_float", func(r []relstore.Value) (rdf.Term, error) { return rdf.Float(r[2].Float()), nil }},
		{"t_bool", func(r []relstore.Value) (rdf.Term, error) { return rdf.Boolean(r[2].Int() != 0), nil }},
		{"t_typed", func(r []relstore.Value) (rdf.Term, error) {
			if r[3].Str() == string(rdf.XSDDateTime) {
				ts, err := time.Parse(time.RFC3339Nano, r[2].Str())
				if err != nil {
					return nil, fmt.Errorf("relrdf: bad stored dateTime %q", r[2].Str())
				}
				return rdf.DateTime{T: ts}, nil
			}
			return rdf.Typed{Lexical: r[2].Str(), Datatype: rdf.IRI(r[3].Str())}, nil
		}},
		{"t_array", func(r []relstore.Value) (rdf.Term, error) {
			a, err := st.Arrays.Open(r[2].Int())
			if err != nil {
				return nil, err
			}
			return rdf.NewArray(a), nil
		}},
	}
	for _, step := range steps {
		if err := load(step.table, step.make); err != nil {
			return n, err
		}
	}
	return n, nil
}
