package relstore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustExec(t *testing.T, db *Database, sql string, params ...Value) *Result {
	t.Helper()
	res, err := db.Exec(sql, params...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// rowCount returns a table's row count by SELECT COUNT(*), which the
// store's counters see as one statement.
func rowCount(t *testing.T, db *Database, table string) int64 {
	t.Helper()
	return mustExec(t, db, `SELECT COUNT(*) FROM `+table).Rows[0][0].Int()
}

func newChunksDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	mustExec(t, db, `CREATE TABLE chunks (aid INT, cno INT, data BLOB, PRIMARY KEY (aid, cno))`)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := newChunksDB(t)
	mustExec(t, db, `INSERT INTO chunks VALUES (?, ?, ?)`, I64(1), I64(0), Blob([]byte("abc")))
	// TEXT literal in a BLOB column must be rejected.
	if _, err := db.Exec(`INSERT INTO chunks VALUES (1, 1, 'text-as-blob-error-check')`); err == nil {
		t.Fatal("TEXT into BLOB column should fail")
	}
	res := mustExec(t, db, `SELECT cno, data FROM chunks WHERE aid = ?`, I64(1))
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
}

func TestInsertTypeMismatchRejected(t *testing.T) {
	db := newChunksDB(t)
	if _, err := db.Exec(`INSERT INTO chunks VALUES (?, ?, ?)`, I64(1), I64(0), Text("x")); err == nil {
		t.Fatal("TEXT into BLOB should fail")
	}
	if _, err := db.Exec(`INSERT INTO chunks VALUES (?, ?, ?)`, Text("x"), I64(0), Blob(nil)); err == nil {
		t.Fatal("TEXT into INT should fail")
	}
}

func TestDuplicatePKRejected(t *testing.T) {
	db := newChunksDB(t)
	mustExec(t, db, `INSERT INTO chunks VALUES (?, ?, ?)`, I64(1), I64(0), Blob([]byte("a")))
	if _, err := db.Exec(`INSERT INTO chunks VALUES (?, ?, ?)`, I64(1), I64(0), Blob([]byte("b"))); err == nil {
		t.Fatal("duplicate key should fail")
	}
}

func TestPointLookupUsesIndex(t *testing.T) {
	db := newChunksDB(t)
	for c := 0; c < 100; c++ {
		mustExec(t, db, `INSERT INTO chunks VALUES (?, ?, ?)`, I64(7), I64(int64(c)), Blob([]byte{byte(c)}))
	}
	db.ResetStats()
	res := mustExec(t, db, `SELECT data FROM chunks WHERE aid = ? AND cno = ?`, I64(7), I64(42))
	if len(res.Rows) != 1 || res.Rows[0][0].Bytes()[0] != 42 {
		t.Fatalf("rows %v", res.Rows)
	}
	st := db.StatsSnapshot()
	if st.IndexScans != 1 || st.FullScans != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.RowsScanned != 1 {
		t.Fatalf("point lookup scanned %d rows", st.RowsScanned)
	}
}

func TestInListLookup(t *testing.T) {
	db := newChunksDB(t)
	for c := 0; c < 50; c++ {
		mustExec(t, db, `INSERT INTO chunks VALUES (?, ?, ?)`, I64(1), I64(int64(c)), Blob([]byte{byte(c)}))
	}
	db.ResetStats()
	res := mustExec(t, db, `SELECT cno, data FROM chunks WHERE aid = 1 AND cno IN (?, ?, ?)`,
		I64(3), I64(30), I64(44))
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	st := db.StatsSnapshot()
	if st.FullScans != 0 {
		t.Fatal("IN list should use the index")
	}
	if st.RowsScanned != 3 {
		t.Fatalf("scanned %d", st.RowsScanned)
	}
}

func TestBetweenRangeScan(t *testing.T) {
	db := newChunksDB(t)
	for c := 0; c < 100; c++ {
		mustExec(t, db, `INSERT INTO chunks VALUES (?, ?, ?)`, I64(1), I64(int64(c)), Blob([]byte{byte(c)}))
	}
	db.ResetStats()
	res := mustExec(t, db, `SELECT cno FROM chunks WHERE aid = 1 AND cno BETWEEN ? AND ?`, I64(10), I64(19))
	if len(res.Rows) != 10 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	st := db.StatsSnapshot()
	if st.FullScans != 0 || st.RowsScanned != 10 {
		t.Fatalf("stats %+v", st)
	}
}

func TestModStridePredicate(t *testing.T) {
	db := newChunksDB(t)
	for c := 0; c < 30; c++ {
		mustExec(t, db, `INSERT INTO chunks VALUES (?, ?, ?)`, I64(1), I64(int64(c)), Blob([]byte{byte(c)}))
	}
	res := mustExec(t, db,
		`SELECT cno FROM chunks WHERE aid = 1 AND cno BETWEEN ? AND ? AND MOD(cno - ?, ?) = 0`,
		I64(2), I64(20), I64(2), I64(3))
	if len(res.Rows) != 7 { // 2,5,8,11,14,17,20
		t.Fatalf("rows %d: %v", len(res.Rows), res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, `CREATE TABLE m (id INT, v DOUBLE, PRIMARY KEY (id))`)
	for i := 1; i <= 10; i++ {
		mustExec(t, db, `INSERT INTO m VALUES (?, ?)`, I64(int64(i)), F64(float64(i)))
	}
	res := mustExec(t, db, `SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM m`)
	row := res.Rows[0]
	if row[0].Int() != 10 || row[1].Float() != 55 || row[2].Float() != 1 || row[3].Float() != 10 || row[4].Float() != 5.5 {
		t.Fatalf("row %v", row)
	}
}

func TestAggregateEmpty(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, `CREATE TABLE m (id INT, v DOUBLE, PRIMARY KEY (id))`)
	res := mustExec(t, db, `SELECT COUNT(*), SUM(v) FROM m`)
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("row %v", res.Rows[0])
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, `CREATE TABLE m (id INT, v DOUBLE, PRIMARY KEY (id))`)
	for i := 1; i <= 10; i++ {
		mustExec(t, db, `INSERT INTO m VALUES (?, ?)`, I64(int64(i)), F64(float64(10-i)))
	}
	res := mustExec(t, db, `SELECT id, v FROM m ORDER BY v DESC LIMIT 3`)
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("rows %v", res.Rows)
	}
	res2 := mustExec(t, db, `SELECT id FROM m LIMIT 4`)
	if len(res2.Rows) != 4 {
		t.Fatalf("rows %d", len(res2.Rows))
	}
}

func TestDelete(t *testing.T) {
	db := newChunksDB(t)
	for c := 0; c < 10; c++ {
		mustExec(t, db, `INSERT INTO chunks VALUES (?, ?, ?)`, I64(1), I64(int64(c)), Blob([]byte{byte(c)}))
	}
	res := mustExec(t, db, `DELETE FROM chunks WHERE aid = 1 AND cno BETWEEN ? AND ?`, I64(3), I64(6))
	if res.RowsAffected != 4 {
		t.Fatalf("deleted %d", res.RowsAffected)
	}
	if n := rowCount(t, db, "chunks"); n != 6 {
		t.Fatalf("size %d", n)
	}
}

func TestHeapTableWithoutPK(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, `CREATE TABLE log (msg TEXT, sev INT)`)
	mustExec(t, db, `INSERT INTO log VALUES (?, ?)`, Text("a"), I64(1))
	mustExec(t, db, `INSERT INTO log VALUES (?, ?)`, Text("b"), I64(2))
	res := mustExec(t, db, `SELECT * FROM log WHERE sev > 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "b" {
		t.Fatalf("rows %v", res.Rows)
	}
	st := db.StatsSnapshot()
	if st.FullScans == 0 {
		t.Fatal("heap select should be a full scan")
	}
	dres := mustExec(t, db, `DELETE FROM log WHERE sev = 1`)
	if dres.RowsAffected != 1 {
		t.Fatalf("deleted %d", dres.RowsAffected)
	}
	if n := rowCount(t, db, "log"); n != 1 {
		t.Fatalf("size %d", n)
	}
}

func TestParamCountMismatch(t *testing.T) {
	db := newChunksDB(t)
	if _, err := db.Exec(`SELECT cno FROM chunks WHERE aid = ?`); err == nil {
		t.Fatal("missing parameter should fail")
	}
}

func TestSQLSyntaxErrors(t *testing.T) {
	db := NewDatabase()
	bad := []string{
		`DROP TABLE x`,
		`SELECT FROM x`,
		`CREATE TABLE t (a FANCYTYPE)`,
		`SELECT a FROM`,
		`INSERT INTO t VALUES (`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t WHERE a LIKE 'x'`,
		`SELECT a FROM t LIMIT x`,
		`SELECT a FROM t extra`,
		`SELECT a FROM t WHERE MOD(a, 2) = 0`, // MOD needs col - e form
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Fatalf("expected error for %q", sql)
		}
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	db := NewDatabase()
	if _, err := db.Exec(`SELECT a FROM missing`); err == nil {
		t.Fatal("unknown table should fail")
	}
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	if _, err := db.Exec(`SELECT b FROM t`); err == nil {
		t.Fatal("unknown column should fail")
	}
	if _, err := db.Exec(`SELECT a FROM t WHERE b = 1`); err == nil {
		t.Fatal("unknown where column should fail")
	}
	if _, err := db.Exec(`SELECT a FROM t ORDER BY b`); err == nil {
		t.Fatal("unknown order column should fail")
	}
	if _, err := db.Exec(`CREATE TABLE t (a INT)`); err == nil {
		t.Fatal("duplicate table should fail")
	}
	if _, err := db.Exec(`CREATE TABLE u (a INT, a INT)`); err == nil {
		t.Fatal("duplicate column should fail")
	}
	if _, err := db.Exec(`CREATE TABLE v (a INT, PRIMARY KEY (b))`); err == nil {
		t.Fatal("unknown pk column should fail")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I64(1), I64(2), -1},
		{I64(2), F64(1.5), 1},
		{F64(1.5), F64(1.5), 0},
		{Null, I64(0), -1},
		{Null, Null, 0},
		{Text("a"), Text("b"), -1},
		{I64(1), Text("a"), -1},
		{Blob([]byte{1}), Blob([]byte{1, 2}), -1},
		{Blob([]byte{2}), Blob([]byte{1, 2}), 1},
		{Text("x"), Blob(nil), -1},
	}
	for i, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Fatalf("case %d: Compare(%v,%v) = %d, want %d", i, c.a, c.b, got, c.want)
		}
	}
}

func TestBtreeLargeInsertAndScan(t *testing.T) {
	tr := newBtree()
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, v := range perm {
		tr.put([]Value{I64(int64(v))}, []Value{I64(int64(v)), Text(fmt.Sprint(v))})
	}
	if tr.size != n {
		t.Fatalf("size %d", tr.size)
	}
	// In-order scan yields sorted keys.
	prev := int64(-1)
	count := 0
	tr.scanRange(nil, nil, func(key, _ []Value) bool {
		if key[0].Int() <= prev {
			t.Fatalf("out of order: %d after %d", key[0].Int(), prev)
		}
		prev = key[0].Int()
		count++
		return true
	})
	if count != n {
		t.Fatalf("scanned %d", count)
	}
	// Range scan.
	count = 0
	tr.scanRange([]Value{I64(100)}, []Value{I64(199)}, func(_, _ []Value) bool {
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("range scanned %d", count)
	}
	// Delete half.
	for v := 0; v < n; v += 2 {
		if !tr.delete([]Value{I64(int64(v))}) {
			t.Fatalf("delete %d failed", v)
		}
	}
	if tr.size != n/2 {
		t.Fatalf("size %d", tr.size)
	}
	if tr.get([]Value{I64(2)}) != nil {
		t.Fatal("deleted key still present")
	}
	if tr.get([]Value{I64(3)}) == nil {
		t.Fatal("kept key missing")
	}
}

func TestBtreePutReplaces(t *testing.T) {
	tr := newBtree()
	tr.put([]Value{I64(1)}, []Value{Text("a")})
	if tr.put([]Value{I64(1)}, []Value{Text("b")}) {
		t.Fatal("second put should replace, not insert")
	}
	if tr.size != 1 || tr.get([]Value{I64(1)})[0].Str() != "b" {
		t.Fatal("replace failed")
	}
}

// Property: the btree behaves like a sorted map for arbitrary
// insert sequences.
func TestBtreeModelProperty(t *testing.T) {
	f := func(keys []int16) bool {
		tr := newBtree()
		model := map[int64]bool{}
		for _, k := range keys {
			tr.put([]Value{I64(int64(k))}, []Value{I64(int64(k))})
			model[int64(k)] = true
		}
		if tr.size != len(model) {
			return false
		}
		got := 0
		prev := int64(-1 << 62)
		okOrder := true
		tr.scanRange(nil, nil, func(key, _ []Value) bool {
			if key[0].Int() <= prev {
				okOrder = false
			}
			prev = key[0].Int()
			got++
			return true
		})
		return okOrder && got == len(model)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SELECT with BETWEEN returns exactly the model's keys in
// the interval.
func TestSelectBetweenModelProperty(t *testing.T) {
	f := func(keys []uint8, lo8, hi8 uint8) bool {
		db := NewDatabase()
		if _, err := db.Exec(`CREATE TABLE t (k INT, PRIMARY KEY (k))`); err != nil {
			return false
		}
		model := map[int64]bool{}
		for _, k := range keys {
			if model[int64(k)] {
				continue
			}
			model[int64(k)] = true
			if _, err := db.Exec(`INSERT INTO t VALUES (?)`, I64(int64(k))); err != nil {
				return false
			}
		}
		lo, hi := int64(lo8), int64(hi8)
		if lo > hi {
			lo, hi = hi, lo
		}
		res, err := db.Exec(`SELECT k FROM t WHERE k BETWEEN ? AND ?`, I64(lo), I64(hi))
		if err != nil {
			return false
		}
		want := 0
		for k := range model {
			if k >= lo && k <= hi {
				want++
			}
		}
		return len(res.Rows) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
