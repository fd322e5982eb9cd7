// Command ssdm-server runs SSDM as a network service: the
// client-server deployment mode of the system. Clients (including the
// Go equivalent of the Matlab integration, internal/ssdmclient) speak
// the framed protocol of internal/protocol.
//
// Usage:
//
//	ssdm-server [-addr 127.0.0.1:7564] [-load data.ttl]...
//	            [-http-addr 127.0.0.1:8080] [-tenants tenants.json]
//	            [-http-max-inflight N]
//	            [-shards addr1,addr2,...]
//	            [-store dir | -sql single|buffer|spd]
//	            [-query-timeout 30s] [-max-rows N] [-max-bindings N]
//	            [-chunk-cache 64MiB] [-parallelism N]
//	            [-drain-timeout 10s]
//	            [-metrics-addr 127.0.0.1:9090] [-slow-query 500ms]
//	            [-log-format text|json]
//	            [-wal-dir dir] [-wal-sync always|interval|none]
//	            [-wal-group-ms N] [-wal-checkpoint-bytes N]
//
// -shards turns the instance into a scatter-gather coordinator over
// the listed shard servers (plain ssdm-server peers): triples
// partition by subject hash, single-subject queries and
// COUNT/SUM/MIN/MAX aggregates push down with coordinator-side partial
// merging, and everything else gathers. See docs/SHARDING.md.
//
// -store attaches a binary-file array back-end rooted at dir; -sql
// attaches a relational back-end (embedded) with the given retrieval
// strategy. Without either, arrays are held resident.
//
// -http-addr starts the W3C SPARQL-protocol HTTP front door
// (internal/httpfront): GET/POST /sparql, POST /update, SPARQL 1.1
// JSON/CSV/Turtle results, per-tenant datasets and quotas from the
// -tenants JSON file, and admission control (-http-max-inflight bounds
// concurrently executing HTTP queries; excess requests get 429 +
// Retry-After). The default tenant shares the dataset with the framed
// TCP protocol on -addr.
//
// -metrics-addr starts an HTTP observability listener serving
// /metrics (Prometheus text format), /debug/vars (expvar) and
// /debug/pprof/* (profiling) on a dedicated mux and server, so it
// drains with the rest of the process. -slow-query logs every
// query-class request at or above the threshold as one structured
// record with the query text, duration, row count and guard outcome;
// -log-format selects text or JSON for all server log output.
//
// -wal-dir enables the durable write path: every update is appended
// to a write-ahead log and (under -wal-sync always, the default)
// fsynced before its response is sent, with concurrent updates
// coalesced into one fsync (-wal-group-ms bounds the added latency).
// On start the dataset recovers from the last checkpoint plus log
// replay; on clean shutdown a final checkpoint truncates the log.
// When the log already holds a dataset, -image/-load seeds are
// skipped. See docs/OPERATIONS.md for the recovery runbook.
//
// The guard flags bound every query the server runs (clients can
// tighten them per request, never loosen them). On SIGINT/SIGTERM the
// server drains gracefully: the TCP, HTTP and metrics listeners drain
// together — in-flight queries are cancelled, their clients get their
// error responses, new HTTP requests get 503 — and after
// -drain-timeout any stragglers are force-closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"scisparql/internal/core"
	"scisparql/internal/httpfront"
	"scisparql/internal/metrics"
	"scisparql/internal/relstore"
	"scisparql/internal/server"
	"scisparql/internal/shard"
	"scisparql/internal/storage"
	"scisparql/internal/storage/filestore"
	"scisparql/internal/storage/relbackend"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7564", "listen address")
	httpAddr := flag.String("http-addr", "", "HTTP SPARQL-protocol listener: GET/POST /sparql, POST /update (empty = disabled)")
	tenantsFile := flag.String("tenants", "", "JSON tenants config for the HTTP front door (see docs/OPERATIONS.md)")
	httpMaxInflight := flag.Int("http-max-inflight", 0, "global cap on concurrently executing HTTP queries, 429 beyond it (0 = unbounded)")
	image := flag.String("image", "", "snapshot image: restored at start, written at shutdown")
	storeDir := flag.String("store", "", "attach a file array store rooted at this directory")
	sqlStrat := flag.String("sql", "", "attach a relational array store: single, buffer or spd")
	queryTimeout := flag.Duration("query-timeout", 0, "default wall-clock deadline per query (0 = none)")
	maxRows := flag.Int("max-rows", 0, "default cap on result rows per query (0 = unlimited)")
	maxBindings := flag.Int64("max-bindings", 0, "default cap on intermediate bindings per query (0 = unlimited)")
	chunkCache := flag.Int64("chunk-cache", 0, "byte budget of the shared array chunk cache (0 = default 64MiB, negative = unlimited)")
	par := flag.Int("parallelism", 0, "fetch worker pool width per chunk retrieval (0 = GOMAXPROCS, capped)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain window")
	walDir := flag.String("wal-dir", "", "enable the write-ahead log in this directory (recovers on start)")
	walSync := flag.String("wal-sync", "always", "WAL sync policy: always, interval or none")
	walGroupMS := flag.Int("wal-group-ms", 2, "group-commit dwell in milliseconds (latency cap on fsync coalescing)")
	walCkptBytes := flag.Int64("wal-checkpoint-bytes", 0, "checkpoint when the log grows past this size (0 = default 64MiB, negative = explicit only)")
	shardAddrs := flag.String("shards", "", "comma-separated shard server addresses; this instance becomes a scatter-gather coordinator over them")
	metricsAddr := flag.String("metrics-addr", "", "HTTP observability listener: /metrics, /debug/vars, /debug/pprof (empty = disabled)")
	slowQuery := flag.Duration("slow-query", 0, "log queries at or above this duration (0 = disabled)")
	logFormat := flag.String("log-format", "text", "server log format: text or json")
	var loads []string
	flag.Func("load", "Turtle file to load (repeatable)", func(v string) error {
		loads = append(loads, v)
		return nil
	})
	flag.Parse()

	var handler slog.Handler
	switch strings.ToLower(*logFormat) {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fatalf("unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	opts := core.DefaultOptions()
	opts.QueryTimeout = *queryTimeout
	opts.MaxResultRows = *maxRows
	opts.MaxBindings = *maxBindings
	opts.ChunkCacheBytes = *chunkCache
	opts.WALDir = *walDir
	opts.WALSync = *walSync
	opts.WALGroupWait = time.Duration(*walGroupMS) * time.Millisecond
	opts.WALCheckpointBytes = *walCkptBytes
	storage.SetParallelism(*par)
	db := core.OpenWith(opts)
	switch {
	case *storeDir != "" && *sqlStrat != "":
		fatalf("choose one of -store and -sql")
	case *storeDir != "":
		fs, err := filestore.New(*storeDir)
		if err != nil {
			fatalf("%v", err)
		}
		db.AttachBackend(fs)
	case *sqlStrat != "":
		rb, err := relbackend.New(relstore.NewDatabase())
		if err != nil {
			fatalf("%v", err)
		}
		switch strings.ToLower(*sqlStrat) {
		case "single":
			rb.Strategy = relbackend.StrategySingle
		case "buffer":
			rb.Strategy = relbackend.StrategyBuffered
		case "spd":
			rb.Strategy = relbackend.StrategySPD
		default:
			fatalf("unknown strategy %q", *sqlStrat)
		}
		db.AttachBackend(rb)
	}

	// Coordinator mode: dial the shard peers and route all query and
	// update traffic through the scatter-gather coordinator. The
	// distributor attaches before the seed loads so -load documents are
	// partitioned across the shards rather than held locally.
	if *shardAddrs != "" {
		var peers []shard.Shard
		for _, a := range strings.Split(*shardAddrs, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			sh, err := shard.Dial(a)
			if err != nil {
				fatalf("shard %s: %v", a, err)
			}
			peers = append(peers, sh)
		}
		coord, err := shard.New(db, peers)
		if err != nil {
			fatalf("shards: %v", err)
		}
		db.SetDistributor(coord)
		defer coord.Close()
		logger.Info("coordinator mode", "shards", len(peers))
	}

	// The WAL is enabled after the back-end attaches (recovery
	// re-resolves proxied-array links against it) and before any seed
	// data loads, so the seed itself is logged. When the log already
	// holds a dataset, -image/-load are skipped: they are a first-run
	// seed, and replaying them on every restart would duplicate
	// blank-node-bearing data.
	seed := true
	if *walDir != "" {
		ri, err := db.EnableWAL()
		if err != nil {
			fatalf("wal: %v", err)
		}
		if ri.Checkpoint || ri.Records > 0 {
			seed = false
			logger.Info("wal recovery complete",
				"records", ri.Records, "checkpoint", ri.Checkpoint,
				"duration", ri.Duration.String(), "triples", db.Dataset.Default.Size())
		}
	}
	if seed && *image != "" {
		if _, err := os.Stat(*image); err == nil {
			if err := db.LoadSnapshot(*image); err != nil {
				fatalf("image %s: %v", *image, err)
			}
		}
	}
	if seed {
		for _, path := range loads {
			if err := db.LoadTurtleFile(path, ""); err != nil {
				fatalf("load %s: %v", path, err)
			}
		}
	}

	srv := server.New(db)
	srv.Logger = logger
	srv.SlowQuery = *slowQuery
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "ssdm-server listening on %s (%d triples loaded)\n",
		bound, db.Dataset.Default.Size())

	// Observability listener: a dedicated http.Server over an owned mux
	// (never http.DefaultServeMux), so a second server in the process
	// cannot double-register handlers and the drain path below can shut
	// it down like every other listener.
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: metrics.Default().DebugMux()}
		go func() {
			logger.Info("metrics listener starting", "addr", *metricsAddr)
			if err := metricsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("metrics listener failed", "err", err.Error())
			}
		}()
	}

	// HTTP SPARQL-protocol front door.
	var (
		front   *httpfront.Front
		httpSrv *http.Server
	)
	if *httpAddr != "" {
		cfg := &httpfront.Config{GlobalMaxInflight: *httpMaxInflight}
		if *tenantsFile != "" {
			b, err := os.ReadFile(*tenantsFile)
			if err != nil {
				fatalf("%v", err)
			}
			cfg, err = httpfront.ParseConfig(b)
			if err != nil {
				fatalf("%v", err)
			}
			if cfg.GlobalMaxInflight == 0 {
				cfg.GlobalMaxInflight = *httpMaxInflight
			}
		}
		tenants, err := cfg.Build(opts, db)
		if err != nil {
			fatalf("%v", err)
		}
		front = httpfront.New(tenants)
		front.Logger = logger
		front.SlowQuery = *slowQuery
		front.GlobalMaxInflight = cfg.GlobalMaxInflight
		httpSrv = &http.Server{Addr: *httpAddr, Handler: front}
		go func() {
			logger.Info("http front door starting", "addr", *httpAddr, "tenants", strings.Join(tenants.Names(), ","))
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("http listener failed", "err", err.Error())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(os.Stderr, "shutting down (draining up to %v)\n", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	// Drain every listener together: the HTTP front flips to 503 and
	// cancels its in-flight queries, the TCP server cancels and
	// finishes its in-flight responses, and the metrics server closes
	// once its scrapes complete.
	var wg sync.WaitGroup
	drain := func(name string, fn func(context.Context) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "%s drain incomplete: %v\n", name, err)
			}
		}()
	}
	drain("tcp", srv.Shutdown)
	if httpSrv != nil {
		front.Shutdown()
		drain("http", httpSrv.Shutdown)
	}
	if metricsSrv != nil {
		drain("metrics", metricsSrv.Shutdown)
	}
	wg.Wait()
	cancel()
	if *walDir != "" {
		// A clean shutdown checkpoints so the next start replays
		// (almost) nothing, then closes the log.
		if err := db.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "shutdown checkpoint failed: %v\n", err)
		}
		if err := db.CloseWAL(); err != nil {
			fmt.Fprintf(os.Stderr, "wal close: %v\n", err)
		}
	}
	if *image != "" {
		if err := db.SaveSnapshot(*image); err != nil {
			fatalf("save image: %v", err)
		}
		fmt.Fprintf(os.Stderr, "snapshot written to %s\n", *image)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ssdm-server: "+format+"\n", args...)
	os.Exit(1)
}
