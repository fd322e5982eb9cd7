package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/bistab"
	"scisparql/internal/core"
	"scisparql/internal/protocol"
	"scisparql/internal/rdf"
	"scisparql/internal/spd"
	"scisparql/internal/ssdmclient"
	"scisparql/internal/wal"
)

// Direct probes: layers that no request can be split into from outside
// are timed by calling their exported functions on the workload's own
// data (or on a scratch copy, where the call would change state). Each
// probe observes a per-layer metric and records a probe span.

// probeKit holds the scratch instances write replays and update probes
// run against, so they never touch the instance under test.
type probeKit struct {
	scratchDB  *core.SSDM // WAL-less
	scratchLog *wal.Log   // same sync policy and group wait as the workload's
}

func newProbeKit(e *env) (*probeKit, error) {
	l, err := wal.Open(wal.Options{Dir: filepath.Join(e.dir, "scratch-wal"), Policy: wal.SyncAlways, GroupWait: walGroupWait})
	if err != nil {
		return nil, err
	}
	e.onClose(l.Close)
	return &probeKit{scratchDB: core.Open(), scratchLog: l}, nil
}

// probe times f (which reports how many units of work it did) and
// observes dur/units scaled to the metric's unit.
func (t *tracer) probe(metric, layer string, perUnit time.Duration, f func() (units int, err error)) error {
	start := time.Now()
	n, err := f()
	dur := time.Since(start)
	if err != nil {
		return fmt.Errorf("probe %s: %w", metric, err)
	}
	t.probeSpan(metric, layer, start, dur)
	if n > 0 {
		t.observe(metric, float64(dur)/float64(perUnit)/float64(n))
	}
	return nil
}

// probeRDF times the triple store on the loaded graph: a
// predicate-bound MatchIDs scan, HasIDs probes on triples that exist,
// and Tx.Add + Commit into a scratch graph.
func (t *tracer) probeRDF() error {
	g := t.e.oracleDB.Dataset.Default
	pid, ok := g.Lookup(rdf.IRI(benchNS + "creator"))
	if !ok {
		return fmt.Errorf("probe rdf: predicate b:creator not in the dictionary")
	}
	// A thousand ten-triple documents, the shape of a mixed-rw insert.
	subjects, preds := make([]rdf.Term, 1000), make([]rdf.Term, 10)
	for i := range subjects {
		subjects[i] = rdf.IRI(fmt.Sprintf("%sdoc%d", writeNS, i))
	}
	for k := range preds {
		preds[k] = rdf.IRI(fmt.Sprintf("%sp%d", writeNS, k))
	}
	var s, o []rdf.ID
	for rep := 0; rep < 5; rep++ {
		s, o = s[:0], o[:0]
		err := t.probe("rdf.match_ns_per_triple", "rdf", time.Nanosecond, func() (int, error) {
			n := 0
			g.MatchIDs(context.Background(), 0, pid, 0, 0, func(ss, _, oo []rdf.ID) bool {
				n += len(ss)
				if len(s) < 4096 {
					s, o = append(s, ss...), append(o, oo...)
				}
				return true
			})
			return n, nil
		})
		if err != nil {
			return err
		}
		err = t.probe("rdf.probe_ns", "rdf", time.Nanosecond, func() (int, error) {
			for i := range s {
				if !g.HasIDs(s[i], pid, o[i]) {
					return 0, fmt.Errorf("HasIDs misses a triple MatchIDs returned")
				}
			}
			return len(s), nil
		})
		if err != nil {
			return err
		}
		err = t.probe("rdf.add_ns_per_triple", "rdf", time.Nanosecond, func() (int, error) {
			scratch := rdf.NewGraph()
			tx := scratch.Begin()
			for i, subj := range subjects {
				for k, pred := range preds {
					tx.Add(subj, pred, rdf.Integer(int64(i*len(preds)+k)))
				}
			}
			tx.Commit()
			return len(subjects) * len(preds), nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeKernels times the second-order and aggregate kernels on a
// resident 2 x steps array, the shape of one BISTAB trajectory.
func (t *tracer) probeKernels(steps int) error {
	data := make([]float64, 2*steps)
	for i := range data {
		data[i] = float64(i%977) * 0.5
	}
	a, err := array.FromFloats(data, 2, steps)
	if err != nil {
		return err
	}
	maxOf := func(acc, v array.Number) (array.Number, error) {
		if v.Float() > acc.Float() {
			return v, nil
		}
		return acc, nil
	}
	sqrt := func(args []array.Number) (array.Number, error) {
		return array.FloatN(math.Sqrt(args[0].Float())), nil
	}
	for rep := 0; rep < 9; rep++ {
		if err := t.probe("array.condense_ns_per_elem", "array", time.Nanosecond, func() (int, error) {
			_, err := array.Condense(maxOf, a)
			return a.Count(), err
		}); err != nil {
			return err
		}
		if err := t.probe("array.map_ns_per_elem", "array", time.Nanosecond, func() (int, error) {
			_, err := array.Map(sqrt, a)
			return a.Count(), err
		}); err != nil {
			return err
		}
		if err := t.probe("array.aggalong_ns_per_elem", "array", time.Nanosecond, func() (int, error) {
			_, err := a.AggregateAlong(array.AggSum, 1)
			return a.Count(), err
		}); err != nil {
			return err
		}
	}
	return nil
}

// probeStore times the file store directly: a contiguous and a
// stride-2 run of chunks (with the workload's simulated latency, if
// any), Store of one trajectory-sized array, and the SPD's run count
// on the chunk lists the mix's access shapes touch.
func (t *tracer) probeStore(ctx context.Context) error {
	e := t.e
	sc := e.cfg.Scale
	chunkElems := sc.ChunkBytes / array.ElemSize
	chunks := 2 * sc.Steps / chunkElems
	n := max(chunks/2, 1)
	tasks := int64(sc.ResidentTasks)
	if e.name == wlArrayOutOfCore {
		tasks = int64(sc.OutCoreTasks)
	}
	discard := func(int, []byte) error { return nil }
	for rep := int64(0); rep < 16; rep++ {
		id := 1 + rep*7%tasks
		if err := t.probe("filestore.read_us_per_chunk.contig", "storage", time.Microsecond, func() (int, error) {
			return n, e.store.ReadChunksCtx(ctx, id, []spd.Run{{Start: 0, Stride: 1, Count: n}}, discard)
		}); err != nil {
			return err
		}
		if err := t.probe("filestore.read_us_per_chunk.strided", "storage", time.Microsecond, func() (int, error) {
			return n, e.store.ReadChunksCtx(ctx, id, []spd.Run{{Start: 0, Stride: 2, Count: n}}, discard)
		}); err != nil {
			return err
		}
	}

	traj := array.NewFloat(2, sc.Steps)
	mib := float64(traj.Count()*array.ElemSize) / (1 << 20)
	for rep := 0; rep < 8; rep++ {
		start := time.Now()
		id, err := e.store.Store(traj, chunkElems)
		dur := time.Since(start)
		if err != nil {
			return fmt.Errorf("probe filestore.store_mb_per_s: %w", err)
		}
		t.probeSpan("filestore.store", "storage", start, dur)
		t.observe("filestore.store_mb_per_s", mib/dur.Seconds())
		if err := e.store.Delete(id); err != nil {
			return err
		}
	}

	// The access shapes of the mix's templates, weighted as the mix is.
	view, err := e.store.Open(1)
	if err != nil {
		return err
	}
	var runs, weight float64
	for _, tmpl := range e.seq.Templates {
		if tmpl.Access == nil {
			continue
		}
		v, err := view.Deref(tmpl.Access)
		if err != nil {
			return err
		}
		runs += float64(tmpl.Weight * len(spd.Detect(v.TouchedChunks(chunkElems))))
		weight += float64(tmpl.Weight)
	}
	t.observe("spd.runs_per_fetch", runs/weight)
	return nil
}

// probeCodec times the wire codec: EncodeTerm over scalar terms and
// the array codec over a Q2-sized slice.
func (t *tracer) probeCodec() error {
	terms := []rdf.Term{
		rdf.IRI(bistab.NS + "task17"), rdf.Float(31.25), rdf.Integer(1998),
		rdf.String{Val: "Title 1234"}, rdf.IRI(benchNS + "author77"),
	}
	a := array.NewFloat(1024)
	for i := range a.Base.F {
		a.Base.F[i] = float64(i) * 1.5
	}
	kib := float64(a.Count()*array.ElemSize) / 1024
	for rep := 0; rep < 9; rep++ {
		if err := t.probe("protocol.encode_term_ns", "protocol", time.Nanosecond, func() (int, error) {
			n := 0
			for k := 0; k < 2000; k++ {
				for _, term := range terms {
					if _, err := protocol.EncodeTerm(term); err != nil {
						return 0, err
					}
					n++
				}
			}
			return n, nil
		}); err != nil {
			return err
		}
		start := time.Now()
		s, err := protocol.EncodeArray(a)
		if err == nil {
			_, err = protocol.DecodeArray(s)
		}
		dur := time.Since(start)
		if err != nil {
			return fmt.Errorf("probe protocol.array_codec_us_per_kb: %w", err)
		}
		t.probeSpan("protocol.array_codec", "protocol", start, dur)
		t.observe("protocol.array_codec_us_per_kb", us(dur)/kib)
	}
	return nil
}

// probeFloor times the harness's own client against a handler that
// does nothing: the share of every latency that is generator, socket
// and codec rather than SSDM.
func (t *tracer) probeFloor(ctx context.Context) error {
	e := t.e
	const n = 400
	if !e.isHTTP() {
		c, err := ssdmclient.Connect(e.tcpAddr)
		if err != nil {
			return err
		}
		defer c.Close()
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := c.PingContext(ctx); err != nil {
				return fmt.Errorf("probe gen.floor_us: %w", err)
			}
			t.observe("gen.floor_us", us(time.Since(start)))
		}
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/sparql-results+json")
		_, _ = w.Write([]byte(`{"head":{},"boolean":true}`))
	})}
	done := make(chan struct{})
	go func() { _ = srv.Serve(ln); close(done) }()
	defer func() { _ = srv.Close(); <-done }()
	c := newHTTPClient(ln.Addr().String(), 1)
	defer c.close()
	o := op{Class: classLight, Format: fmtJSON}
	for i := 0; i < n; i++ {
		rep, err := c.do(ctx, "ASK { }", o, false)
		if err != nil {
			return fmt.Errorf("probe gen.floor_us: %w", err)
		}
		t.observe("gen.floor_us", us(rep.lat))
	}
	return nil
}
