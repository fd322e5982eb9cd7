package relstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stats counts the work the store performed; the retrieval-strategy
// experiments read these to report statements issued and data
// transferred, the quantities whose trade-off §6.3 studies.
type Stats struct {
	Statements    int64
	RowsReturned  int64
	BytesReturned int64
	RowsScanned   int64
	IndexScans    int64
	FullScans     int64
}

// Table is one relation with an optional clustered primary-key index.
type Table struct {
	name   string
	cols   []colDef
	colIdx map[string]int
	pkCols []int // positions of primary-key columns, in key order
	index  *btree
	heap   [][]Value // rows when the table has no primary key
}

// Database is an embedded relational store addressed purely through
// SQL text with positional parameters — the same surface an external
// RDBMS would offer over a client library.
type Database struct {
	mu     sync.Mutex
	tables map[string]*Table
	stats  Stats

	// RoundTripDelay simulates the per-statement client/server round
	// trip of a networked DBMS; every Exec sleeps this long once. It is
	// the knob that makes statement-count versus transfer-volume
	// trade-offs observable on a single machine.
	RoundTripDelay time.Duration

	// Bandwidth simulates the result-transfer rate in bytes/second: each
	// statement additionally sleeps bytesReturned/Bandwidth. 0 disables
	// the volume cost (infinite bandwidth).
	Bandwidth int64
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// Result is the outcome of a statement: column names and rows for
// queries, RowsAffected for updates.
type Result struct {
	Cols         []string
	Rows         [][]Value
	RowsAffected int
}

// StatsSnapshot returns a copy of the counters.
func (db *Database) StatsSnapshot() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// ResetStats zeroes the counters.
func (db *Database) ResetStats() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.stats = Stats{}
}

// Exec parses and runs one SQL statement with positional parameters.
func (db *Database) Exec(sql string, params ...Value) (*Result, error) {
	st, err := parseSQL(sql)
	if err != nil {
		return nil, err
	}
	if st.nparams != len(params) {
		return nil, fmt.Errorf("relstore: statement has %d parameters, %d supplied", st.nparams, len(params))
	}
	db.mu.Lock()
	db.stats.Statements++
	bytesBefore := db.stats.BytesReturned
	var res *Result
	switch st.kind {
	case stmtCreate:
		res, err = db.execCreate(st)
	case stmtInsert:
		res, err = db.execInsert(st, params)
	case stmtSelect:
		res, err = db.execSelect(st, params)
	case stmtDelete:
		res, err = db.execDelete(st, params)
	default:
		err = fmt.Errorf("relstore: unsupported statement")
	}
	var delay time.Duration
	if err == nil {
		delay = db.RoundTripDelay
		if db.Bandwidth > 0 {
			if delta := db.stats.BytesReturned - bytesBefore; delta > 0 {
				delay += time.Duration(delta * int64(time.Second) / db.Bandwidth)
			}
		}
	}
	// The simulated round trip happens *outside* db.mu: the lock
	// protects table data, not the wire. Concurrent statements — the
	// parallel chunk-retrieval pipeline issues them — serialize only on
	// the table operation (microseconds) while their simulated network
	// latencies overlap, just as round trips to a real DBMS would.
	db.mu.Unlock()
	if err == nil {
		simulateDelay(delay)
	}
	return res, err
}

// simulateDelay models client/server latency. time.Sleep granularity
// can exceed a millisecond, which would swamp sub-millisecond
// round-trip costs, so short delays wait on the monotonic clock in a
// yield loop (runtime.Gosched) rather than sleeping. Yielding — unlike
// a hard spin — lets concurrent statements' delays overlap even on a
// single-core host: every waiter's deadline advances on the shared
// wall clock while the scheduler round-robins the loop, so N
// concurrent round trips cost ~one delay, not N. The worst case is a
// runnable goroutine that never blocks; it can hold the core for a
// scheduler slice (~10ms) and stretch a sub-millisecond wait, but the
// pipeline's consumers block on channels between chunks, so in
// practice the wait stays accurate.
func simulateDelay(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= 2*time.Millisecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

func (db *Database) execCreate(st *statement) (*Result, error) {
	if _, exists := db.tables[st.table]; exists {
		return nil, fmt.Errorf("relstore: table %q already exists", st.table)
	}
	t := &Table{name: st.table, cols: st.cols, colIdx: map[string]int{}}
	for i, c := range st.cols {
		if _, dup := t.colIdx[c.name]; dup {
			return nil, fmt.Errorf("relstore: duplicate column %q", c.name)
		}
		t.colIdx[c.name] = i
	}
	for _, pk := range st.pk {
		i, ok := t.colIdx[pk]
		if !ok {
			return nil, fmt.Errorf("relstore: primary key column %q not defined", pk)
		}
		t.pkCols = append(t.pkCols, i)
	}
	if len(t.pkCols) > 0 {
		t.index = newBtree()
	}
	db.tables[st.table] = t
	return &Result{}, nil
}

func (st *statement) resolve(e expr, params []Value) Value {
	if e.param >= 0 {
		return params[e.param]
	}
	return e.lit
}

func (db *Database) table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("relstore: no such table %q", name)
	}
	return t, nil
}

func (db *Database) execInsert(st *statement, params []Value) (*Result, error) {
	t, err := db.table(st.table)
	if err != nil {
		return nil, err
	}
	if len(st.vals) != len(t.cols) {
		return nil, fmt.Errorf("relstore: %d values for %d columns", len(st.vals), len(t.cols))
	}
	row := make([]Value, len(t.cols))
	for i, e := range st.vals {
		v := st.resolve(e, params)
		if !v.IsNull() && !typeCompatible(t.cols[i].typ, v) {
			return nil, fmt.Errorf("relstore: value %s not assignable to column %s %s", v, t.cols[i].name, t.cols[i].typ)
		}
		row[i] = coerce(t.cols[i].typ, v)
	}
	if t.index != nil {
		key := t.keyOf(row)
		if t.index.get(key) != nil {
			return nil, fmt.Errorf("relstore: duplicate primary key in %q", t.name)
		}
		t.index.put(key, row)
	} else {
		t.heap = append(t.heap, row)
	}
	return &Result{RowsAffected: 1}, nil
}

func typeCompatible(t Type, v Value) bool {
	switch t {
	case TInt, TFloat:
		return v.numeric()
	case TText:
		return v.kind == TText
	case TBlob:
		return v.kind == TBlob
	}
	return false
}

func coerce(t Type, v Value) Value {
	if v.IsNull() {
		return Null
	}
	switch t {
	case TInt:
		return I64(v.Int())
	case TFloat:
		return F64(v.Float())
	default:
		return v
	}
}

func (t *Table) keyOf(row []Value) []Value {
	key := make([]Value, len(t.pkCols))
	for i, c := range t.pkCols {
		key[i] = row[c]
	}
	return key
}

// plan describes how matching rows are located.
type plan struct {
	point    [][]Value // exact keys to look up (from full-PK = / IN)
	scanLo   []Value   // range scan bounds; nil = unbounded
	scanHi   []Value
	useIndex bool
	filters  []pred // residual predicates
}

// buildPlan chooses an access path: full primary-key point lookups,
// an index range over a PK prefix, or a full scan.
func buildPlan(t *Table, where []pred, st *statement, params []Value) plan {
	if t.index == nil || len(where) == 0 {
		return plan{filters: where}
	}
	// Map predicates onto PK columns in key order.
	rest := append([]pred(nil), where...)
	take := func(col string, kinds ...predKind) (pred, bool) {
		name := col
		for i, pr := range rest {
			if pr.col != name {
				continue
			}
			for _, k := range kinds {
				if pr.kind == k && (k != predCmp || pr.op == "=") {
					out := pr
					rest = append(rest[:i], rest[i+1:]...)
					return out, true
				}
			}
		}
		return pred{}, false
	}

	var prefix []Value
	for pkPos, ci := range t.pkCols {
		colName := t.cols[ci].name
		if pr, ok := take(colName, predCmp); ok {
			prefix = append(prefix, st.resolve(pr.args[0], params))
			continue
		}
		// Next key column: IN yields point lookups when the prefix plus
		// this column completes the key or the remaining columns are
		// unconstrained; BETWEEN yields a range scan.
		if pr, ok := take(colName, predIn); ok {
			keys := make([][]Value, 0, len(pr.args))
			for _, a := range pr.args {
				k := append(append([]Value(nil), prefix...), st.resolve(a, params))
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return CompareKeys(keys[i], keys[j]) < 0 })
			if pkPos == len(t.pkCols)-1 {
				return plan{point: keys, useIndex: true, filters: rest}
			}
			// Partial key: run one prefix scan per IN value.
			return plan{point: keys, useIndex: true, filters: rest}
		}
		if pr, ok := take(colName, predBetween); ok {
			lo := append(append([]Value(nil), prefix...), st.resolve(pr.args[0], params))
			hi := append(append([]Value(nil), prefix...), st.resolve(pr.args[1], params))
			return plan{scanLo: lo, scanHi: hi, useIndex: true, filters: rest}
		}
		break
	}
	if len(prefix) == len(t.pkCols) && len(prefix) > 0 {
		return plan{point: [][]Value{prefix}, useIndex: true, filters: rest}
	}
	if len(prefix) > 0 {
		return plan{scanLo: prefix, scanHi: prefix, useIndex: true, filters: rest}
	}
	return plan{filters: where}
}

// matchRow applies residual predicates.
func (st *statement) matchRow(t *Table, row []Value, filters []pred, params []Value) (bool, error) {
	for _, pr := range filters {
		ci, ok := t.colIdx[pr.col]
		if !ok {
			return false, fmt.Errorf("relstore: no such column %q", pr.col)
		}
		v := row[ci]
		switch pr.kind {
		case predCmp:
			c := Compare(v, st.resolve(pr.args[0], params))
			ok := false
			switch pr.op {
			case "=":
				ok = c == 0
			case "<":
				ok = c < 0
			case "<=":
				ok = c <= 0
			case ">":
				ok = c > 0
			case ">=":
				ok = c >= 0
			case "<>":
				ok = c != 0
			}
			if !ok {
				return false, nil
			}
		case predIn:
			found := false
			for _, a := range pr.args {
				if Compare(v, st.resolve(a, params)) == 0 {
					found = true
					break
				}
			}
			if !found {
				return false, nil
			}
		case predBetween:
			if Compare(v, st.resolve(pr.args[0], params)) < 0 || Compare(v, st.resolve(pr.args[1], params)) > 0 {
				return false, nil
			}
		case predMod:
			sub := st.resolve(pr.args[0], params).Int()
			div := st.resolve(pr.args[1], params).Int()
			rem := st.resolve(pr.args[2], params).Int()
			if div == 0 {
				return false, fmt.Errorf("relstore: MOD by zero")
			}
			m := (v.Int() - sub) % div
			if m < 0 {
				m += div
			}
			if m != rem {
				return false, nil
			}
		}
	}
	return true, nil
}

// forEachMatch drives the chosen access path.
func (db *Database) forEachMatch(t *Table, st *statement, params []Value, yield func(row []Value) bool) error {
	for _, pr := range st.where {
		if _, ok := t.colIdx[pr.col]; !ok {
			return fmt.Errorf("relstore: no such column %q", pr.col)
		}
	}
	pl := buildPlan(t, st.where, st, params)
	var iterErr error
	visit := func(row []Value) bool {
		db.stats.RowsScanned++
		ok, err := st.matchRow(t, row, pl.filters, params)
		if err != nil {
			iterErr = err
			return false
		}
		if !ok {
			return true
		}
		return yield(row)
	}
	switch {
	case pl.useIndex && pl.point != nil:
		db.stats.IndexScans++
		for _, key := range pl.point {
			if len(key) == len(t.pkCols) {
				if row := t.index.get(key); row != nil {
					db.stats.RowsScanned++
					ok, err := st.matchRow(t, row, pl.filters, params)
					if err != nil {
						return err
					}
					if ok && !yield(row) {
						return nil
					}
				}
			} else {
				stop := false
				t.index.scanPrefix(key, func(_, row []Value) bool {
					if !visit(row) {
						stop = true
						return false
					}
					return true
				})
				if iterErr != nil {
					return iterErr
				}
				if stop {
					return nil
				}
			}
		}
	case pl.useIndex:
		db.stats.IndexScans++
		lo, hi := pl.scanLo, pl.scanHi
		if len(hi) > 0 && len(hi) < len(t.pkCols) {
			// Prefix range: extend upper bound conceptually by scanning
			// while the prefix matches.
			prefixLen := len(hi)
			prefix := hi
			t.index.scanRange(lo, nil, func(key, row []Value) bool {
				if CompareKeys(key[:min(prefixLen, len(key))], prefix) > 0 {
					return false
				}
				return visit(row)
			})
		} else {
			t.index.scanRange(lo, hi, func(_, row []Value) bool {
				return visit(row)
			})
		}
		if iterErr != nil {
			return iterErr
		}
	default:
		db.stats.FullScans++
		if t.index != nil {
			t.index.scanRange(nil, nil, func(_, row []Value) bool {
				return visit(row)
			})
		} else {
			for _, row := range t.heap {
				if !visit(row) {
					break
				}
			}
		}
		if iterErr != nil {
			return iterErr
		}
	}
	return nil
}

func (db *Database) execSelect(st *statement, params []Value) (*Result, error) {
	t, err := db.table(st.table)
	if err != nil {
		return nil, err
	}
	// Resolve output columns.
	type outCol struct {
		name string
		agg  string
		ci   int
	}
	var outs []outCol
	hasAgg := false
	for _, sc := range st.selCols {
		switch {
		case sc.star:
			for i, c := range t.cols {
				outs = append(outs, outCol{name: c.name, ci: i})
			}
		case sc.agg != "":
			hasAgg = true
			ci := -1
			if sc.col != "*" {
				var ok bool
				ci, ok = t.colIdx[sc.col]
				if !ok {
					return nil, fmt.Errorf("relstore: no such column %q", sc.col)
				}
			}
			outs = append(outs, outCol{name: sc.agg + "(" + sc.col + ")", agg: sc.agg, ci: ci})
		default:
			ci, ok := t.colIdx[sc.col]
			if !ok {
				return nil, fmt.Errorf("relstore: no such column %q", sc.col)
			}
			outs = append(outs, outCol{name: sc.col, ci: ci})
		}
	}

	res := &Result{}
	for _, o := range outs {
		res.Cols = append(res.Cols, o.name)
	}

	if hasAgg {
		accs := make([]aggAcc, len(outs))
		for i := range accs {
			accs[i].ints = true
		}
		err := db.forEachMatch(t, st, params, func(row []Value) bool {
			for i, o := range outs {
				if o.agg == "" {
					continue
				}
				a := &accs[i]
				if o.ci < 0 { // COUNT(*)
					a.n++
					continue
				}
				v := row[o.ci]
				if v.IsNull() {
					continue
				}
				if isElemAgg(o.agg) {
					// Fold the BLOB's elements without boxing them into
					// Values — this is the "UDF inside the server" path
					// and must not dominate the savings it exists for.
					asFloat := strings.HasSuffix(o.agg, "F")
					payload := v.Bytes()
					for off := 0; off+8 <= len(payload); off += 8 {
						u := binary.LittleEndian.Uint64(payload[off:])
						if asFloat {
							a.foldFloat(math.Float64frombits(u))
						} else {
							a.foldInt(int64(u))
						}
					}
					continue
				}
				a.fold(v)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		row := make([]Value, len(outs))
		for i, o := range outs {
			a := accs[i]
			switch o.agg {
			case "COUNT", "ELEMCNT":
				row[i] = I64(a.n)
			case "SUM", "ELEMSUMF", "ELEMSUMI":
				if a.n == 0 {
					row[i] = Null
				} else if a.ints {
					row[i] = I64(a.sumI)
				} else {
					row[i] = F64(a.sum)
				}
			case "AVG":
				if a.n == 0 {
					row[i] = Null
				} else {
					row[i] = F64(a.sum / float64(a.n))
				}
			case "MIN", "ELEMMINF", "ELEMMINI":
				if a.n == 0 {
					row[i] = Null
				} else {
					row[i] = a.vMin
				}
			case "MAX", "ELEMMAXF", "ELEMMAXI":
				if a.n == 0 {
					row[i] = Null
				} else {
					row[i] = a.vMax
				}
			default:
				return nil, fmt.Errorf("relstore: aggregate %q not combinable with plain columns", o.agg)
			}
		}
		res.Rows = [][]Value{row}
		db.noteReturned(res)
		return res, nil
	}

	err = db.forEachMatch(t, st, params, func(row []Value) bool {
		// LIMIT without ORDER BY can stop early (checked before the
		// append so LIMIT 0 yields nothing).
		if st.orderBy == "" && st.limit >= 0 && len(res.Rows) >= st.limit {
			return false
		}
		out := make([]Value, len(outs))
		for i, o := range outs {
			out[i] = row[o.ci]
		}
		res.Rows = append(res.Rows, out)
		return true
	})
	if err != nil {
		return nil, err
	}
	if st.orderBy != "" {
		oi := -1
		for i, o := range outs {
			if o.name == st.orderBy {
				oi = i
				break
			}
		}
		if oi < 0 {
			return nil, fmt.Errorf("relstore: ORDER BY column %q not in select list", st.orderBy)
		}
		sort.SliceStable(res.Rows, func(i, j int) bool {
			c := Compare(res.Rows[i][oi], res.Rows[j][oi])
			if st.desc {
				return c > 0
			}
			return c < 0
		})
		if st.limit >= 0 && len(res.Rows) > st.limit {
			res.Rows = res.Rows[:st.limit]
		}
	}
	db.noteReturned(res)
	return res, nil
}

// aggAcc accumulates one aggregate column.
type aggAcc struct {
	n    int64
	sum  float64
	sumI int64
	vMin Value
	vMax Value
	ints bool
}

func (a *aggAcc) foldFloat(f float64) {
	if a.n == 0 || f < a.vMin.Float() {
		a.vMin = F64(f)
	}
	if a.n == 0 || f > a.vMax.Float() {
		a.vMax = F64(f)
	}
	a.n++
	a.sum += f
	a.sumI += int64(f)
	a.ints = false
}

func (a *aggAcc) foldInt(i int64) {
	if a.n == 0 || i < a.vMin.Int() {
		a.vMin = I64(i)
	}
	if a.n == 0 || i > a.vMax.Int() {
		a.vMax = I64(i)
	}
	a.n++
	a.sum += float64(i)
	a.sumI += i
}

func (a *aggAcc) fold(v Value) {
	if a.n == 0 {
		a.vMin, a.vMax = v, v
	} else {
		if Compare(v, a.vMin) < 0 {
			a.vMin = v
		}
		if Compare(v, a.vMax) > 0 {
			a.vMax = v
		}
	}
	a.n++
	a.sum += v.Float()
	a.sumI += v.Int()
	if v.kind != TInt {
		a.ints = false
	}
}
func (db *Database) noteReturned(res *Result) {
	db.stats.RowsReturned += int64(len(res.Rows))
	for _, row := range res.Rows {
		for _, v := range row {
			db.stats.BytesReturned += int64(SizeOf(v))
		}
	}
}

func (db *Database) execDelete(st *statement, params []Value) (*Result, error) {
	t, err := db.table(st.table)
	if err != nil {
		return nil, err
	}
	var victims [][]Value
	err = db.forEachMatch(t, st, params, func(row []Value) bool {
		victims = append(victims, row)
		return true
	})
	if err != nil {
		return nil, err
	}
	if t.index != nil {
		for _, row := range victims {
			t.index.delete(t.keyOf(row))
		}
	} else {
		keep := t.heap[:0]
		kill := map[*Value]bool{}
		for _, v := range victims {
			if len(v) > 0 {
				kill[&v[0]] = true
			}
		}
		for _, row := range t.heap {
			if len(row) > 0 && kill[&row[0]] {
				continue
			}
			keep = append(keep, row)
		}
		t.heap = keep
	}
	return &Result{RowsAffected: len(victims)}, nil
}
