// Package experiments reproduces the evaluation of the dissertation
// (chapter 6 and chapter 7). Each exported function is one experiment
// and returns its table as typed rows: storage/retrieval-strategy
// comparison (E1), buffer-size sweep (E2), chunk-size sweep (E3), the
// BISTAB application queries (E4), collection consolidation (E5), the
// client/server workflow (E6), BISTAB scaling (E7), and the ablations
// A1 (cost-based join ordering), A2 (sequence pattern detection) and
// A3 (aggregate pushdown).
//
// A row carries two kinds of column. Counters — statements and bytes
// crossing the storage boundary, chunks fetched, bindings produced,
// rows, requests, graph sizes — are deterministic for a given Options
// and carry the reproduction target, the *shape* of each table (which
// configuration wins and why); the package's tests assert them. Wall
// time depends on the machine and is there to be printed, never
// compared. cmd/ssdm-bench prints the tables (a field's `col` tag
// names its column, or its columns for an array field); EXPERIMENTS.md
// records paper-vs-measured.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"scisparql/internal/bistab"
	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/loader"
	"scisparql/internal/relstore"
	"scisparql/internal/storage"
	"scisparql/internal/storage/filestore"
	"scisparql/internal/storage/relbackend"
)

// Options fix the scale the experiments run at.
type Options struct {
	// rtt and bandwidth are the simulated per-statement latency and
	// result-transfer rate (bytes/second) of the relational back-end,
	// standing in for a networked RDBMS; 0 disables either cost.
	rtt       time.Duration
	bandwidth int64
	iters     int // timed queries per cell
	workload  workload
	bistab    bistab.Config
	tempDir   string // hosts file back-ends
}

// DefaultOptions returns the scale of the tables in EXPERIMENTS.md.
func DefaultOptions(tempDir string) Options {
	return Options{
		rtt:       200 * time.Microsecond,
		bandwidth: 100 << 20,
		iters:     5,
		workload:  defaultWorkload(),
		bistab:    bistab.DefaultConfig(),
		tempDir:   tempDir,
	}
}

// String describes the scale, for the head of a printed report.
func (o Options) String() string {
	return fmt.Sprintf("%d arrays of %dx%d, chunk %d B; BISTAB %d cases x %d realizations x %d steps; SQL round trip %v at %d MB/s; %d queries per cell",
		o.workload.NumArrays, o.workload.Rows, o.workload.Cols, o.workload.ChunkBytes,
		o.bistab.Cases, o.bistab.Realizations, o.bistab.Steps, o.rtt, o.bandwidth>>20, o.iters)
}

// sqlStore builds wl on a fresh relational back-end set up by
// configure, then charges the simulated link (loading is not timed
// with latency) and zeroes the statement counters. Aggregate pushdown
// starts off: every experiment but A3 measures retrieval.
func (o Options) sqlStore(wl workload, configure func(*relbackend.Backend)) (*core.SSDM, *relstore.Database, error) {
	rdb := relstore.NewDatabase()
	rb, err := relbackend.New(rdb)
	if err != nil {
		return nil, nil, err
	}
	rb.Aggregable = false
	configure(rb)
	db, err := build(wl, rb)
	if err != nil {
		return nil, nil, err
	}
	rdb.RoundTripDelay = o.rtt
	rdb.Bandwidth = o.bandwidth
	rdb.ResetStats()
	return db, rdb, nil
}

func strategy(s relbackend.Strategy) func(*relbackend.Backend) {
	return func(rb *relbackend.Backend) { rb.Strategy = s }
}

// measure runs o.iters cold queries of the pattern (proxy caches
// dropped before each, outside the timed span) and returns the mean
// wall time per query and, for a relational store, the statements
// issued and bytes returned per query.
func (o Options) measure(db *core.SSDM, rdb *relstore.Database, p pattern, wl workload, param int) (d time.Duration, stmts, bytes int64, err error) {
	var before relstore.Stats
	if rdb != nil {
		before = rdb.StatsSnapshot()
	}
	for i := 0; i < o.iters; i++ {
		loader.DropProxyCaches(db.Dataset.Default)
		start := time.Now()
		if err := run(db, p, 1, wl, param, int64(100+i)); err != nil {
			return 0, 0, 0, err
		}
		d += time.Since(start)
	}
	d /= time.Duration(o.iters)
	if rdb != nil {
		after := rdb.StatsSnapshot()
		stmts = (after.Statements - before.Statements) / int64(o.iters)
		bytes = (after.BytesReturned - before.BytesReturned) / int64(o.iters)
	}
	return d, stmts, bytes, nil
}

// analyze runs o.iters cold executions of a query text and returns the
// mean wall time with the last execution's trace, whose counters (rows,
// bindings, chunk fetches) repeat exactly from run to run.
func (o Options) analyze(db *core.SSDM, text string) (time.Duration, *engine.Trace, error) {
	var (
		tr *engine.Trace
		d  time.Duration
	)
	for i := 0; i < o.iters; i++ {
		loader.DropProxyCaches(db.Dataset.Default)
		start := time.Now()
		var err error
		if _, tr, err = db.QueryAnalyze(context.Background(), text, engine.Limits{}); err != nil {
			return 0, nil, err
		}
		d += time.Since(start)
	}
	return d / time.Duration(o.iters), tr, nil
}

// E1Row is one access pattern of Experiment 1 across the six storage
// configurations.
type E1Row struct {
	Pattern    string           `col:"pattern"`
	Time       [6]time.Duration `col:"RESIDENT,MEMORY,FILE,SQL-SINGLE,SQL-BUFFER,SQL-SPD"`
	Statements [3]int64         `col:"stmts single,stmts buffer,stmts spd"`
}

// E1 — Comparing the Retrieval Strategies (§6.3.2): each access
// pattern against each storage configuration; per cell the mean query
// time and, for the SQL strategies, statements issued per query.
func E1(o Options) ([]E1Row, error) {
	type config struct {
		db  *core.SSDM
		rdb *relstore.Database
	}
	fs, err := filestore.New(o.tempDir + "/e1files")
	if err != nil {
		return nil, err
	}
	var configs []config
	for _, be := range []storage.Backend{nil, storage.NewMemory(), fs} {
		db, err := build(o.workload, be)
		if err != nil {
			return nil, err
		}
		configs = append(configs, config{db: db})
	}
	for _, s := range []relbackend.Strategy{
		relbackend.StrategySingle, relbackend.StrategyBuffered, relbackend.StrategySPD,
	} {
		db, rdb, err := o.sqlStore(o.workload, strategy(s))
		if err != nil {
			return nil, err
		}
		configs = append(configs, config{db, rdb})
	}
	rows := make([]E1Row, len(allPatterns))
	for pi, p := range allPatterns {
		rows[pi].Pattern = p.String()
		for ci, c := range configs {
			d, stmts, _, err := o.measure(c.db, c.rdb, p, o.workload, 4)
			if err != nil {
				return nil, fmt.Errorf("E1 %s config %d: %w", p, ci, err)
			}
			rows[pi].Time[ci] = d
			if c.rdb != nil {
				rows[pi].Statements[ci-3] = stmts
			}
		}
	}
	return rows, nil
}

// E2Row is one IN-list buffer size of Experiment 2.
type E2Row struct {
	Buffer     int           `col:"buffer"`
	Time       time.Duration `col:"time/query"`
	Statements int64         `col:"statements/query"`
}

// E2 — Varying the Buffer Size (§6.3.3): the buffered IN-list strategy
// under the scattered-random pattern (K = 64) as the buffer grows.
func E2(o Options) ([]E2Row, error) {
	var rows []E2Row
	for _, buf := range []int{1, 4, 16, 64, 256} {
		db, rdb, err := o.sqlStore(o.workload, func(rb *relbackend.Backend) {
			rb.Strategy = relbackend.StrategyBuffered
			rb.BufferSize = buf
		})
		if err != nil {
			return nil, err
		}
		d, stmts, _, err := o.measure(db, rdb, patRandom, o.workload, 64)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E2Row{buf, d, stmts})
	}
	return rows, nil
}

// E3Row is one chunk size of Experiment 3.
type E3Row struct {
	ChunkBytes   int           `col:"chunkB"`
	FullTime     time.Duration `col:"full time"`
	FullBytes    int64         `col:"full bytes"`
	ElementTime  time.Duration `col:"element time"`
	ElementBytes int64         `col:"element bytes"`
}

// E3 — Varying the Chunk Size (§6.3.4): the SPD strategy across chunk
// sizes for a sequential scan and a point access.
func E3(o Options) ([]E3Row, error) {
	var rows []E3Row
	for _, chunkB := range []int{512, 2048, 8192, 32768, 131072} {
		wl := o.workload
		wl.ChunkBytes = chunkB
		db, rdb, err := o.sqlStore(wl, strategy(relbackend.StrategySPD))
		if err != nil {
			return nil, err
		}
		row := E3Row{ChunkBytes: chunkB}
		if row.FullTime, _, row.FullBytes, err = o.measure(db, rdb, patFull, wl, 0); err != nil {
			return nil, err
		}
		if row.ElementTime, _, row.ElementBytes, err = o.measure(db, rdb, patElement, wl, 0); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E4Row is one BISTAB application query of Experiment 4 on resident,
// file-backed and relational (SPD) arrays.
type E4Row struct {
	Query      string           `col:"query"`
	Time       [3]time.Duration `col:"RESIDENT,FILE,SQL-SPD"`
	Rows       [3]int           `col:"rows resident,rows file,rows sql"`
	Statements int64            `col:"stmts sql"`
}

// E4 — BISTAB application queries (§6.4.4–6.4.5) across storage
// configurations.
func E4(o Options) ([]E4Row, error) {
	fs, err := filestore.New(o.tempDir + "/e4files")
	if err != nil {
		return nil, err
	}
	rdb := relstore.NewDatabase()
	rb, err := relbackend.New(rdb)
	if err != nil {
		return nil, err
	}
	var dbs [3]*core.SSDM
	for i, be := range []storage.Backend{nil, fs, rb} {
		if dbs[i], err = bistab.Generate(o.bistab, be); err != nil {
			return nil, err
		}
	}
	rdb.RoundTripDelay = o.rtt
	rdb.Bandwidth = o.bandwidth

	var rows []E4Row
	for _, q := range bistab.Queries(o.bistab) {
		row := E4Row{Query: q.Name}
		before := rdb.StatsSnapshot().Statements
		for i, db := range dbs {
			d, tr, err := o.analyze(db, q.Text)
			if err != nil {
				return nil, fmt.Errorf("E4 %s config %d: %w", q.Name, i, err)
			}
			row.Time[i], row.Rows[i] = d, tr.Rows
		}
		row.Statements = (rdb.StatsSnapshot().Statements - before) / int64(o.iters)
		rows = append(rows, row)
	}
	return rows, nil
}

// E5Row is one representation of Experiment 5's matrices.
type E5Row struct {
	Mode     string        `col:"mode"`
	Triples  int           `col:"graph triples"`
	Bindings int64         `col:"bindings/access"`
	Time     time.Duration `col:"element access"`
}

// E5 — Collection consolidation (§5.3.2 / §2.3.5.1): graph size and
// the cost of one element access (intermediate bindings, time) for 16
// matrices of 24×24 loaded as nested RDF collections, with
// consolidation into arrays off and on.
func E5(o Options) ([]E5Row, error) {
	doc := collectionDoc(16, 24)
	var rows []E5Row
	for _, c := range []struct {
		consolidate bool
		mode, query string
	}{
		// Without consolidation element [2,1] is the rdf:rest chain walk
		// the dissertation shows (§2.3.5.1); with it, one array deref.
		{false, "collections (raw)", `PREFIX ex: <http://ex/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?v WHERE { ex:m1 ex:data ?l . ?l rdf:rest ?r1 . ?r1 rdf:first ?row . ?row rdf:first ?v }`},
		{true, "consolidated arrays", `PREFIX ex: <http://ex/>
SELECT (?a[2,1] AS ?v) WHERE { ex:m1 ex:data ?a }`},
	} {
		opts := core.DefaultOptions()
		opts.ConsolidateCollections = c.consolidate
		db := core.OpenWith(opts)
		if err := db.LoadTurtle(doc, ""); err != nil {
			return nil, err
		}
		d, tr, err := o.analyze(db, c.query)
		if err != nil {
			return nil, err
		}
		if tr.Rows != 1 {
			return nil, fmt.Errorf("E5 %s: %d rows, want 1", c.mode, tr.Rows)
		}
		rows = append(rows, E5Row{c.mode, db.Dataset.Default.Size(), tr.Bindings, d})
	}
	return rows, nil
}

// collectionDoc renders n side×side matrices ex:m1..ex:mN as nested
// Turtle collections of their row-major element numbers.
func collectionDoc(n, side int) string {
	var doc strings.Builder
	doc.WriteString("@prefix ex: <http://ex/> .\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&doc, "ex:m%d ex:data (", i)
		for r := 0; r < side; r++ {
			doc.WriteString(" (")
			for c := 0; c < side; c++ {
				fmt.Fprintf(&doc, " %d", r*side+c)
			}
			doc.WriteString(" )")
		}
		doc.WriteString(" ) .\n")
	}
	return doc.String()
}

// E7Row is one dataset size of Experiment 7: per query Q1, Q3, Q4 the
// result rows, the chunks fetched from the array store and the time.
type E7Row struct {
	Cases  int              `col:"cases"`
	Tasks  int              `col:"tasks"`
	Rows   [3]int           `col:"rows Q1,rows Q3,rows Q4"`
	Chunks [3]int64         `col:"chunks Q1,chunks Q3,chunks Q4"`
	Time   [3]time.Duration `col:"Q1,Q3,Q4"`
}

// E7 — dataset scaling: the BISTAB queries as the number of parameter
// cases doubles, arrays in the MEMORY store so fetches are counted. The
// metadata-only Q1 fetches nothing at any size; the array-bound Q3 and
// Q4 fetch every trajectory's species-A row, in proportion to the
// dataset.
func E7(o Options) ([]E7Row, error) {
	var rows []E7Row
	for _, cases := range []int{4, 8, 16, 32} {
		cfg := o.bistab
		cfg.Cases = cases
		db, err := bistab.Generate(cfg, storage.NewMemory())
		if err != nil {
			return nil, err
		}
		row := E7Row{Cases: cases, Tasks: cfg.Tasks()}
		for qi, q := range []string{bistab.Q1(30), bistab.Q3(100), bistab.Q4()} {
			d, tr, err := o.analyze(db, q)
			if err != nil {
				return nil, err
			}
			row.Time[qi], row.Rows[qi], row.Chunks[qi] = d, tr.Rows, tr.ChunkFetches
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// A1Row is one join-ordering mode of ablation A1.
type A1Row struct {
	Ordering string        `col:"join ordering"`
	Bindings int64         `col:"bindings"`
	Rows     int           `col:"rows"`
	Time     time.Duration `col:"time/query"`
}

// A1 — ablation: cost-based join ordering on vs off, on pairs of BISTAB
// tasks in the same parameter case. The textual order enumerates ?a
// and ?b independently first — a cross product — while the cost-based
// order keeps the join connected through bi:case.
func A1(o Options) ([]A1Row, error) {
	db, err := bistab.Generate(o.bistab, nil)
	if err != nil {
		return nil, err
	}
	q := fmt.Sprintf(`PREFIX bi: <%s>
SELECT ?a ?b WHERE {
  ?a bi:k_1 ?k1 .
  ?b bi:k_4 ?k4 .
  ?a bi:case ?c .
  ?b bi:case ?c .
}`, bistab.NS)
	var rows []A1Row
	for _, c := range []struct {
		name    string
		disable bool
	}{{"cost-based", false}, {"textual order", true}} {
		db.Engine.DisableJoinOrder = c.disable
		d, tr, err := o.analyze(db, q)
		if err != nil {
			return nil, err
		}
		rows = append(rows, A1Row{c.name, tr.Bindings, tr.Rows, d})
	}
	return rows, nil
}

// A2Row is one stride of ablation A2.
type A2Row struct {
	Stride     int              `col:"stride"`
	Time       [2]time.Duration `col:"SQL-SINGLE,SQL-SPD"`
	Statements [2]int64         `col:"stmts single,stmts spd"`
}

// A2 — ablation: SPD range formulation vs naive per-chunk statements
// for a strided access, as the stride grows.
func A2(o Options) ([]A2Row, error) {
	var rows []A2Row
	for _, stride := range []int{2, 4, 8} {
		row := A2Row{Stride: stride}
		for i, s := range []relbackend.Strategy{relbackend.StrategySingle, relbackend.StrategySPD} {
			db, rdb, err := o.sqlStore(o.workload, strategy(s))
			if err != nil {
				return nil, err
			}
			if row.Time[i], row.Statements[i], _, err = o.measure(db, rdb, patStride, o.workload, stride); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// A3Row is one aggregate-pushdown mode of ablation A3.
type A3Row struct {
	AAPR  string        `col:"AAPR"`
	Time  time.Duration `col:"time/query"`
	Bytes int64         `col:"bytes/query"`
}

// A3 — ablation: AAPR (server-side aggregation) on vs off for a
// whole-array aggregate on the relational back-end.
func A3(o Options) ([]A3Row, error) {
	var rows []A3Row
	for _, c := range []struct {
		name       string
		aggregable bool
	}{{"delegated", true}, {"client-side", false}} {
		db, rdb, err := o.sqlStore(o.workload, func(rb *relbackend.Backend) { rb.Aggregable = c.aggregable })
		if err != nil {
			return nil, err
		}
		d, _, bytes, err := o.measure(db, rdb, patFull, o.workload, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, A3Row{c.name, d, bytes})
	}
	return rows, nil
}
