// Package mediator implements Relational-to-RDF mapping (dissertation
// §2.3.1): rows of a relational table become RDF subjects, columns
// become properties, and the result is queryable with SciSPARQL
// alongside any other metadata — the mediator capability SSDM inherits
// from the SWARD/SARD lineage of its platform.
//
// The same mapping covers the spreadsheet-style stores of §2.3.4
// (Chelonia: tasks x named variables), which is exactly how the BISTAB
// application's source data was shaped: every (row, column, value)
// cell becomes one triple, with NULL cells simply absent.
package mediator

import (
	"fmt"
	"strings"

	"scisparql/internal/rdf"
	"scisparql/internal/relstore"
)

// Mapping describes how one table is exposed as RDF. It supplies the
// minimum components every Relational-to-RDF mapping has (§2.3.1):
// table -> class, key values -> subject IRIs, columns -> properties.
type Mapping struct {
	// Table is the relational table to expose.
	Table string
	// Class is asserted as rdf:type for every row subject ("" = none).
	Class rdf.IRI
	// SubjectPrefix forms subject IRIs: prefix + key values joined by
	// "/". With no KeyCols, rows become fresh blank nodes (the mapping
	// rule for tables without a primary key).
	SubjectPrefix string
	// KeyCols are the columns whose values identify a row.
	KeyCols []string
	// PropNS is the namespace prepended to column names to form
	// property IRIs.
	PropNS string
	// Props overrides the property IRI for individual columns.
	Props map[string]rdf.IRI
	// Skip lists columns not to map.
	Skip map[string]bool
}

// Import materializes the mapped RDF view of the table into g as one
// transaction and returns the number of triples added. BLOB columns are
// skipped (bulk data belongs to the array back-end, not the metadata
// graph). A row that cannot be mapped fails the import and leaves g as
// it was.
func Import(db *relstore.Database, m Mapping, g *rdf.Graph) (int, error) {
	if m.Table == "" {
		return 0, fmt.Errorf("mediator: empty table name")
	}
	res, err := db.Exec("SELECT * FROM " + m.Table)
	if err != nil {
		return 0, err
	}
	colIdx := map[string]int{}
	for i, c := range res.Cols {
		colIdx[c] = i
	}
	for _, k := range m.KeyCols {
		if _, ok := colIdx[strings.ToLower(k)]; !ok {
			return 0, fmt.Errorf("mediator: key column %q not in table %s", k, m.Table)
		}
	}
	tx := g.Begin()
	defer tx.Abort() // a no-op once committed
	for _, row := range res.Rows {
		subj, err := m.subjectFor(g, row, colIdx)
		if err != nil {
			return 0, err
		}
		if m.Class != "" {
			tx.Add(subj, rdf.RDFType, m.Class)
		}
		for i, col := range res.Cols {
			if m.Skip[col] {
				continue
			}
			v := row[i]
			if v.IsNull() || v.Kind() == relstore.TBlob {
				continue
			}
			prop, ok := m.Props[col]
			if !ok {
				prop = rdf.IRI(m.PropNS + col)
			}
			tx.Add(subj, prop, termFor(v))
		}
	}
	added := tx.Changed()
	tx.Commit()
	return added, nil
}

func (m Mapping) subjectFor(g *rdf.Graph, row []relstore.Value, colIdx map[string]int) (rdf.Term, error) {
	if len(m.KeyCols) == 0 {
		return g.NewBlank(), nil
	}
	parts := make([]string, len(m.KeyCols))
	for i, k := range m.KeyCols {
		v := row[colIdx[strings.ToLower(k)]]
		if v.IsNull() {
			return nil, fmt.Errorf("mediator: NULL key in table %s", m.Table)
		}
		switch v.Kind() {
		case relstore.TText:
			parts[i] = v.Str()
		default:
			parts[i] = v.String()
		}
	}
	return rdf.IRI(m.SubjectPrefix + strings.Join(parts, "/")), nil
}

// termFor converts a relational value to an RDF literal.
func termFor(v relstore.Value) rdf.Term {
	switch v.Kind() {
	case relstore.TInt:
		return rdf.Integer(v.Int())
	case relstore.TFloat:
		return rdf.Float(v.Float())
	default:
		return rdf.String{Val: v.Str()}
	}
}
