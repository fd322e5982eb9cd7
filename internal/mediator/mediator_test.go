package mediator

import (
	"testing"

	"scisparql/internal/engine"
	"scisparql/internal/rdf"
	"scisparql/internal/relstore"
)

func employeeDB(t *testing.T) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase()
	stmts := []string{
		`CREATE TABLE emp (id INT, name TEXT, dept TEXT, salary DOUBLE, photo BLOB, PRIMARY KEY (id))`,
		`INSERT INTO emp VALUES (1, 'alice', 'research', 6000.0, NULL)`,
		`INSERT INTO emp VALUES (2, 'bob', 'research', 5000.0, NULL)`,
		`INSERT INTO emp VALUES (3, 'carol', 'ops', 5500.0, NULL)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestImportBasic(t *testing.T) {
	db := employeeDB(t)
	g := rdf.NewGraph()
	n, err := Import(db, Mapping{
		Table:         "emp",
		Class:         rdf.IRI("http://ex/Employee"),
		SubjectPrefix: "http://ex/emp/",
		KeyCols:       []string{"id"},
		PropNS:        "http://ex/",
		Skip:          map[string]bool{"id": true},
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	// Per row: type + name + dept + salary = 4 (photo NULL skipped, id skipped).
	if n != 12 || g.Size() != 12 {
		t.Fatalf("added %d, size %d", n, g.Size())
	}
	if !g.Has(rdf.IRI("http://ex/emp/1"), rdf.IRI("http://ex/name"), rdf.String{Val: "alice"}) {
		t.Fatal("missing mapped triple")
	}
	if !g.Has(rdf.IRI("http://ex/emp/3"), rdf.RDFType, rdf.IRI("http://ex/Employee")) {
		t.Fatal("missing class triple")
	}
}

func TestImportQueryableWithSciSPARQL(t *testing.T) {
	db := employeeDB(t)
	ds := rdf.NewDataset()
	_, err := Import(db, Mapping{
		Table:         "emp",
		Class:         rdf.IRI("http://ex/Employee"),
		SubjectPrefix: "http://ex/emp/",
		KeyCols:       []string{"id"},
		PropNS:        "http://ex/",
	}, ds.Default)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(ds)
	res, err := e.QueryString(`
PREFIX ex: <http://ex/>
SELECT ?dept (AVG(?s) AS ?avg) WHERE { ?e a ex:Employee ; ex:dept ?dept ; ex:salary ?s }
GROUP BY ?dept ORDER BY ?dept`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("%v", res.Rows)
	}
	if res.Get(1, "avg") != rdf.Float(5500) {
		t.Fatalf("%v", res.Rows)
	}
}

func TestImportBlankNodesWithoutKeys(t *testing.T) {
	db := employeeDB(t)
	g := rdf.NewGraph()
	_, err := Import(db, Mapping{Table: "emp", PropNS: "http://ex/"}, g)
	if err != nil {
		t.Fatal(err)
	}
	blanks := map[string]bool{}
	g.MatchTerms(nil, rdf.IRI("http://ex/name"), nil, func(s, _, _ rdf.Term) bool {
		if b, ok := s.(rdf.Blank); ok {
			blanks[string(b)] = true
		}
		return true
	})
	if len(blanks) != 3 {
		t.Fatalf("blank subjects %d", len(blanks))
	}
}

func TestImportPropertyOverride(t *testing.T) {
	db := employeeDB(t)
	g := rdf.NewGraph()
	foafName := rdf.IRI("http://xmlns.com/foaf/0.1/name")
	_, err := Import(db, Mapping{
		Table:         "emp",
		SubjectPrefix: "http://ex/emp/",
		KeyCols:       []string{"id"},
		PropNS:        "http://ex/",
		Props:         map[string]rdf.IRI{"name": foafName},
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(rdf.IRI("http://ex/emp/2"), foafName, rdf.String{Val: "bob"}) {
		t.Fatal("property override ignored")
	}
}

func TestImportErrors(t *testing.T) {
	db := employeeDB(t)
	g := rdf.NewGraph()
	if _, err := Import(db, Mapping{Table: ""}, g); err == nil {
		t.Fatal("empty table should fail")
	}
	if _, err := Import(db, Mapping{Table: "missing"}, g); err == nil {
		t.Fatal("unknown table should fail")
	}
	if _, err := Import(db, Mapping{Table: "emp", KeyCols: []string{"nope"}}, g); err == nil {
		t.Fatal("unknown key column should fail")
	}
}

func TestImportCompositeKey(t *testing.T) {
	db := relstore.NewDatabase()
	if _, err := db.Exec(`CREATE TABLE obs (run INT, step INT, v DOUBLE, PRIMARY KEY (run, step))`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO obs VALUES (1, 2, 3.5)`); err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph()
	if _, err := Import(db, Mapping{
		Table:         "obs",
		SubjectPrefix: "http://ex/obs/",
		KeyCols:       []string{"run", "step"},
		PropNS:        "http://ex/",
	}, g); err != nil {
		t.Fatal(err)
	}
	if !g.Has(rdf.IRI("http://ex/obs/1/2"), rdf.IRI("http://ex/v"), rdf.Float(3.5)) {
		t.Fatal("composite key subject missing")
	}
}

// TestImportFailureLeavesGraph: a row that cannot be mapped (a NULL key)
// after rows that could fails the import, and the graph keeps exactly the
// triples it had.
func TestImportFailureLeavesGraph(t *testing.T) {
	db := employeeDB(t)
	if _, err := db.Exec(`INSERT INTO emp VALUES (4, 'dave', NULL, 4000.0, NULL)`); err != nil {
		t.Fatal(err)
	}
	g := rdf.NewGraph()
	if _, err := Import(db, Mapping{Table: "emp", SubjectPrefix: "http://ex/emp/", KeyCols: []string{"id"}, PropNS: "http://ex/"}, g); err != nil {
		t.Fatal(err)
	}
	before := g.Size()
	n, err := Import(db, Mapping{Table: "emp", Class: rdf.IRI("http://ex/Dept"), SubjectPrefix: "http://ex/dept/", KeyCols: []string{"dept"}, PropNS: "http://ex/d/"}, g)
	if err == nil {
		t.Fatal("a NULL key should fail the import")
	}
	if n != 0 || g.Size() != before {
		t.Fatalf("a failed import reports %d and leaves %d triples, want 0 and %d", n, g.Size(), before)
	}
	if g.Has(rdf.IRI("http://ex/dept/research"), rdf.RDFType, rdf.IRI("http://ex/Dept")) {
		t.Fatal("a failed import published a row mapped before the failing one")
	}
}
