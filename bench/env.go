package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/bistab"
	"scisparql/internal/core"
	"scisparql/internal/httpfront"
	"scisparql/internal/metrics"
	"scisparql/internal/server"
	"scisparql/internal/shard"
	"scisparql/internal/storage"
	"scisparql/internal/storage/filestore"
)

// Fixed load shape (README "Load shape"): the same on every commit.
const (
	nClients        = 2
	warmup          = 3 * time.Second
	fetchWidth      = 2 // storage.SetParallelism: fetch width must not follow the host
	graphSeed       = 1 // the bibliographic graph is the same for every -seed (see genBiblio)
	nShards         = 4
	simLatency      = 200 * time.Microsecond
	walSync         = "always"
	walGroupWait    = 2 * time.Millisecond
	requestTimeout  = 10 * time.Second
	writePlanLength = 40000
)

// config is one invocation of the harness.
type config struct {
	Workload string
	Seed     int64
	Window   time.Duration // closed-loop timed window
	Warmup   time.Duration // closed-loop warm-up before the window
	Open     time.Duration // open-loop phase (meta-mix only)
	Trace    bool
	Scale    scale
	WorkDir  string // scratch for the file store and the WAL, inside the checkout
}

// env is one set-up workload: the instance under test behind its real
// listener, the generated ops and their oracles.
type env struct {
	cfg  *config
	name string

	db       *core.SSDM // what the front door serves (the coordinator node on sharded-mix)
	oracleDB *core.SSDM // single-node instance the oracles come from
	opts     core.Options

	httpAddr string
	front    *httpfront.Front
	tcpAddr  string

	store *filestore.Store
	coord *shard.Coordinator

	seq     *opSeq
	writes  []writeOp
	oracles []answer
	chunks  []int64 // array workloads: distinct chunks each text's arrays are read from
	dynamic int     // text index answered by the write-count check, -1 if none
	sha     string

	dir      string
	closers  []func() error
	loadRate float64 // triples per second through LoadTurtle
	triples  int
}

func (e *env) isHTTP() bool { return e.httpAddr != "" }

func (e *env) onClose(f func() error) { e.closers = append(e.closers, f) }

// close tears the workload down: listeners first, then stores, then
// the scratch directory.
func (e *env) close() error {
	var first error
	for i := len(e.closers) - 1; i >= 0; i-- {
		if err := e.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	e.closers = nil
	return first
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// serveHTTP puts db behind httpfront on a loopback listener, the way
// ssdm-server -http-addr does.
func (e *env) serveHTTP() error {
	e.front = httpfront.New(httpfront.NewTenants(e.db))
	e.front.Logger = quietLog
	e.front.Metrics = metrics.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: e.front, ErrorLog: slog.NewLogLogger(quietLog.Handler(), slog.LevelError)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	e.httpAddr = ln.Addr().String()
	e.onClose(func() error {
		e.front.Shutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	})
	return nil
}

// serveTCP puts db behind the framed-TCP server on a loopback listener.
func serveTCP(db *core.SSDM) (addr string, stop func() error, err error) {
	srv := server.New(db)
	srv.Logger = quietLog
	srv.Metrics = metrics.NewRegistry()
	addr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	return addr, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}, nil
}

func (e *env) loadTurtle(db *core.SSDM, b *biblio) error {
	t0 := time.Now()
	if err := db.LoadTurtle(b.turtle, ""); err != nil {
		return fmt.Errorf("LoadTurtle: %w", err)
	}
	e.loadRate = float64(b.triples) / time.Since(t0).Seconds()
	e.triples = b.triples
	return nil
}

// setUp builds the workload and returns it with the set-up time:
// generate + load + listeners up + first correct answer. Oracles for
// the remaining texts are harness work and are filled in by
// buildOracles, outside the timed span.
func setUp(cfg *config) (*env, time.Duration, error) {
	e := &env{cfg: cfg, name: cfg.Workload, dynamic: -1, opts: core.DefaultOptions()}
	e.dir = filepath.Join(cfg.WorkDir, fmt.Sprintf("%s-%d", cfg.Workload, os.Getpid()))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, 0, err
	}
	e.onClose(func() error { return os.RemoveAll(e.dir) })
	ready := false
	defer func() {
		if !ready {
			e.close()
		}
	}()
	var err error

	storage.SetParallelism(fetchWidth)
	cache := array.SharedChunkCache()
	cache.SetBudget(array.DefaultChunkCacheBytes)
	cache.Reset()

	r := rand.New(rand.NewSource(cfg.Seed))
	sc := cfg.Scale
	gr := rand.New(rand.NewSource(graphSeed))

	// The single-node oracle instance of sharded-mix is harness
	// equipment, so it is built before the clock starts.
	var shardGraph *biblio
	if cfg.Workload == wlShardedMix {
		shardGraph = genBiblio(gr, sc.ShardDocs)
		e.oracleDB = core.Open()
		if err := e.oracleDB.LoadTurtle(shardGraph.turtle, ""); err != nil {
			return nil, 0, err
		}
	}

	runtime.GC() // what was built before the clock starts is not set-up's garbage
	t0 := time.Now()
	switch cfg.Workload {
	case wlMetaMix:
		b := genBiblio(gr, sc.Docs)
		e.db = core.Open()
		if err := e.loadTurtle(e.db, b); err != nil {
			return nil, 0, err
		}
		e.seq = genOps(r, metaTemplates(newPools(r, b)), sc.MetaCycle, 0.10)
		err = e.serveHTTP()

	case wlMixedRW:
		b := genBiblio(gr, sc.Docs)
		e.opts.WALDir = filepath.Join(e.dir, "wal")
		e.opts.WALSync = walSync
		e.opts.WALGroupWait = walGroupWait
		e.db = core.OpenWith(e.opts)
		if _, err := e.db.EnableWAL(); err != nil {
			return nil, 0, err
		}
		e.onClose(func() error { return e.db.CloseWAL() })
		if err := e.loadTurtle(e.db, b); err != nil {
			return nil, 0, err
		}
		tmpls := append(readerTemplates(newPools(r, b)),
			// 2 % of reads count the write namespace.
			template{Name: "light.write-count", Class: classLight, Weight: 4, Render: func() string { return wcountQuery }})
		e.seq = genOps(r, tmpls, sc.MetaCycle, 0.10)
		for i, t := range e.seq.Texts {
			if t == wcountQuery {
				e.dynamic = i
			}
		}
		e.writes = genWrites(r, writePlanLength)
		err = e.serveHTTP()

	case wlArrayResident, wlArrayOutOfCore:
		tasks := sc.ResidentTasks
		if cfg.Workload == wlArrayOutOfCore {
			tasks = sc.OutCoreTasks
		}
		e.store, err = filestore.New(filepath.Join(e.dir, "store"))
		if err != nil {
			return nil, 0, err
		}
		e.onClose(e.store.Close)
		e.db, err = bistab.Generate(bistab.Config{
			Cases: tasks / 4, Realizations: 4, Steps: sc.Steps, ChunkBytes: sc.ChunkBytes, Seed: cfg.Seed,
		}, e.store)
		if err != nil {
			return nil, 0, err
		}
		if _, err := e.db.Update(bmaxDefine); err != nil {
			return nil, 0, err
		}
		ap := &arrayPools{r: r, tasks: tasks, cases: tasks / 4, steps: sc.Steps,
			chunkElems: storage.ChunkElemsFor(sc.ChunkBytes)}
		e.seq = genOps(r, arrayTemplates(ap), sc.ArrayCycle, 0)
		var stop func() error
		e.tcpAddr, stop, err = serveTCP(e.db)
		if err == nil {
			e.onClose(stop)
		}

	case wlShardedMix:
		var peers []shard.Shard
		for i := 0; i < nShards; i++ {
			addr, stop, err := serveTCP(core.Open())
			if err != nil {
				return nil, 0, err
			}
			e.onClose(stop)
			peer, err := shard.Dial(addr)
			if err != nil {
				return nil, 0, err
			}
			if cfg.Trace {
				peers = append(peers, &timedShard{Shard: peer})
			} else {
				peers = append(peers, peer)
			}
		}
		e.db = core.Open()
		e.coord, err = shard.New(e.db, peers)
		if err != nil {
			return nil, 0, err
		}
		e.onClose(e.coord.Close)
		e.db.SetDistributor(e.coord)
		if err := e.loadTurtle(e.db, shardGraph); err != nil {
			return nil, 0, err
		}
		e.seq = genOps(r, shardedTemplates(newPools(r, shardGraph)), sc.ShardCycle, 0.10)
		err = e.serveHTTP()

	default:
		return nil, 0, fmt.Errorf("unknown workload %q (see -list)", cfg.Workload)
	}
	if err != nil {
		return nil, 0, err
	}
	if e.oracleDB == nil {
		e.oracleDB = e.db
	}
	e.sha = opsSHA256(e.seq, e.writes)
	e.oracles = make([]answer, len(e.seq.Texts))

	// First correct answer through the front door: the sequence's first
	// light op, so that set-up costs the same whether a seed's sequence
	// opens with a point look-up or with a gather join.
	var first op
	for _, first = range e.seq.Ops {
		if first.Class == classLight && first.Text != e.dynamic {
			break
		}
	}
	if e.oracles[first.Text], err = e.oracle(first.Text); err != nil {
		return nil, 0, err
	}
	c, err := e.newClient()
	if err != nil {
		return nil, 0, err
	}
	defer c.close()
	rep, err := c.do(context.Background(), e.seq.Texts[first.Text], first, false)
	if err != nil {
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	if !e.oracles[first.Text].matches(rep.ans, first.Format) {
		return nil, 0, &mismatchError{Text: e.seq.Texts[first.Text], Want: e.oracles[first.Text], Got: rep.ans}
	}
	took := time.Since(t0)

	if cfg.Workload == wlArrayOutOfCore {
		// The oracles are computed against the unthrottled store (see
		// buildOracles); the budget and the per-read latency that make
		// the workload retrieval-bound are armed there, after them.
		cache.SetBudget(sc.OutCoreCache)
	}
	ready = true
	return e, took, nil
}

func (e *env) oracle(text int) (answer, error) {
	res, err := e.oracleDB.Query(e.seq.Texts[text])
	if err != nil {
		return answer{}, fmt.Errorf("oracle for %q: %w", e.seq.Texts[text], err)
	}
	return answerOfResults(res)
}

// buildOracles answers every distinct generated text on the embedded
// single-node instance. On array-outofcore this runs before the
// simulated read latency is armed — the oracle's 4000 queries would
// otherwise cost more than the run — and the chunk cache is emptied
// afterwards so the load starts cold either way.
//
// On the array workloads each oracle query runs against an empty chunk
// cache, so the cache's miss counter afterwards is the number of
// distinct chunks the text needs: the demand chunkcache.hit_ratio is
// measured against. (The cache's own hit counter cannot express it: a
// proxy read looks a chunk up twice, once to prefetch and once to
// read, so even an all-cold run shows one hit per miss.)
func (e *env) buildOracles() error {
	cache := array.SharedChunkCache()
	if e.store != nil {
		e.chunks = make([]int64, len(e.seq.Texts))
	}
	for i := range e.seq.Texts {
		if i == e.dynamic {
			continue
		}
		if e.store != nil {
			cache.Reset()
		}
		var err error
		if e.oracles[i], err = e.oracle(i); err != nil {
			return err
		}
		if e.store != nil {
			e.chunks[i] = cache.Stats().Misses
		}
	}
	if e.name == wlArrayOutOfCore {
		e.store.SimulatedLatency = simLatency
	}
	cache.Reset()
	return nil
}

// mismatchError is an answer that disagrees with its oracle; the run
// prints the offending text and exits non-zero instead of reporting.
type mismatchError struct {
	Text      string
	Want, Got answer
}

func (m *mismatchError) Error() string {
	return fmt.Sprintf("oracle mismatch: want %d rows (hash %x/%x), got %d rows (hash %x/%x) for:\n%s",
		m.Want.Rows, m.Want.Full, m.Want.Lex, m.Got.Rows, m.Got.Full, m.Got.Lex, m.Text)
}
