package relstore

import (
	"math"
	"testing"
	"time"
)

func TestSelectWithLimitZero(t *testing.T) {
	db := newChunksDB(t)
	mustExec(t, db, `INSERT INTO chunks VALUES (1, 0, ?)`, Blob([]byte("x")))
	res := mustExec(t, db, `SELECT cno FROM chunks LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestModNegativeValues(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, `CREATE TABLE t (k INT, PRIMARY KEY (k))`)
	for _, k := range []int64{-7, -4, -1, 2, 5} {
		mustExec(t, db, `INSERT INTO t VALUES (?)`, I64(k))
	}
	// Stride-3 progression anchored at 2: -7, -4, -1, 2, 5 all satisfy
	// MOD(k - 2, 3) = 0 with the non-negative remainder convention.
	res := mustExec(t, db, `SELECT k FROM t WHERE k BETWEEN ? AND ? AND MOD(k - ?, ?) = 0`,
		I64(-7), I64(5), I64(2), I64(3))
	if len(res.Rows) != 5 {
		t.Fatalf("rows %d: %v", len(res.Rows), res.Rows)
	}
}

func TestModByZeroIsError(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, `CREATE TABLE t (k INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if _, err := db.Exec(`SELECT k FROM t WHERE MOD(k - 0, 0) = 0`); err == nil {
		t.Fatal("MOD by zero should error")
	}
}

func TestElemAggregatesDirect(t *testing.T) {
	db := newChunksDB(t)
	// Two chunks of float payloads: [1.5, 2.5] and [3.0].
	buf1 := make([]byte, 16)
	buf2 := make([]byte, 8)
	putF := func(b []byte, off int, f float64) {
		for i, x := range encodeF(f) {
			b[off+i] = x
		}
	}
	putF(buf1, 0, 1.5)
	putF(buf1, 8, 2.5)
	putF(buf2, 0, 3.0)
	mustExec(t, db, `INSERT INTO chunks VALUES (1, 0, ?)`, Blob(buf1))
	mustExec(t, db, `INSERT INTO chunks VALUES (1, 1, ?)`, Blob(buf2))
	res := mustExec(t, db,
		`SELECT ELEMCNT(data), ELEMSUMF(data), ELEMMINF(data), ELEMMAXF(data) FROM chunks WHERE aid = 1`)
	row := res.Rows[0]
	if row[0].Int() != 3 || row[1].Float() != 7 || row[2].Float() != 1.5 || row[3].Float() != 3 {
		t.Fatalf("%v", row)
	}
}

func encodeF(f float64) []byte {
	out := make([]byte, 8)
	u := f64bits(f)
	for i := 0; i < 8; i++ {
		out[i] = byte(u >> (8 * i))
	}
	return out
}

func f64bits(f float64) uint64 { return math.Float64bits(f) }

func TestHeapDeleteAll(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, `CREATE TABLE log (msg TEXT)`)
	mustExec(t, db, `INSERT INTO log VALUES ('a')`)
	mustExec(t, db, `INSERT INTO log VALUES ('b')`)
	res := mustExec(t, db, `DELETE FROM log`)
	if res.RowsAffected != 2 {
		t.Fatalf("deleted %d", res.RowsAffected)
	}
	if n := rowCount(t, db, "log"); n != 0 {
		t.Fatalf("size %d", n)
	}
}

func TestRangeOnPKPrefixOnly(t *testing.T) {
	db := newChunksDB(t)
	for aid := int64(1); aid <= 3; aid++ {
		for c := int64(0); c < 5; c++ {
			mustExec(t, db, `INSERT INTO chunks VALUES (?, ?, ?)`, I64(aid), I64(c), Blob([]byte{1}))
		}
	}
	db.ResetStats()
	// Only the leading PK column constrained: prefix scan, no full scan.
	res := mustExec(t, db, `SELECT cno FROM chunks WHERE aid = 2`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	if st := db.StatsSnapshot(); st.FullScans != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInequalityResidualFilter(t *testing.T) {
	db := newChunksDB(t)
	for c := int64(0); c < 10; c++ {
		mustExec(t, db, `INSERT INTO chunks VALUES (1, ?, ?)`, I64(c), Blob([]byte{byte(c)}))
	}
	res := mustExec(t, db, `SELECT cno FROM chunks WHERE aid = 1 AND cno <> 5 AND cno >= 7`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
}

func TestRoundTripDelaySimulation(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, `CREATE TABLE t (k INT)`)
	db.RoundTripDelay = 3 * time.Millisecond
	start := time.Now()
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if d := time.Since(start); d < 3*time.Millisecond {
		t.Fatalf("delay not applied: %v", d)
	}
}

func TestBandwidthSimulation(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, `CREATE TABLE t (b BLOB, k INT, PRIMARY KEY (k))`)
	mustExec(t, db, `INSERT INTO t VALUES (?, 1)`, Blob(make([]byte, 1<<20)))
	db.Bandwidth = 256 << 20 // 256 MB/s -> ~4ms for 1MB
	start := time.Now()
	mustExec(t, db, `SELECT b FROM t WHERE k = 1`)
	if d := time.Since(start); d < 3*time.Millisecond {
		t.Fatalf("bandwidth cost not applied: %v", d)
	}
}
