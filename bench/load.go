package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed op.
type sample struct {
	lat   time.Duration
	text  int // index into opSeq.Texts (reads)
	tmpl  int
	class int
	ok    bool
}

// phase is what one closed- or open-loop phase observed.
type phase struct {
	dur    time.Duration // from the first send to the last answer
	reads  []sample
	writes []sample
	late   int // open loop: sends more than 1 ms after their due time
}

// runner drives one set-up workload. Op indices and the write plan
// carry on from phase to phase, so warm-up, window and open loop walk
// one generated sequence.
type runner struct {
	e   *env
	tr  *tracer   // nil outside a traced window
	kit *probeKit // scratch instances for write replays (traced mixed-rw)

	next       atomic.Int64 // next index into e.seq.Ops
	wnext      int          // next index into e.writes (one writer)
	writeBytes int64        // bytes of acknowledged update texts (one writer)

	// mixed-rw bookkeeping for the write-count check: a count read
	// between two writer states must lie between what had been
	// acknowledged before the read was sent and what had been started
	// by the time its answer arrived.
	insStarted, insAcked, delStarted, delAcked atomic.Int64

	attempted, failed, refused atomic.Int64

	mu       sync.Mutex
	mismatch *mismatchError // first oracle mismatch
	firstErr error          // first other failure
}

func newRunner(e *env) *runner { return &runner{e: e} }

func (r *runner) fail(err error) {
	r.failed.Add(1)
	if errors.Is(err, errRefused) {
		r.refused.Add(1)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var mm *mismatchError
	if errors.As(err, &mm) {
		if r.mismatch == nil {
			r.mismatch = mm
		}
	} else if r.firstErr == nil {
		r.firstErr = err
	}
}

// enter and leave bracket one op of a traced window: a sampled op and
// its replay run alone, every other op shares the gate.
func (r *runner) enter(sampled bool) {
	switch {
	case r.tr == nil:
	case sampled:
		r.tr.gate.Lock()
	default:
		r.tr.gate.RLock()
	}
}

func (r *runner) leave(sampled bool) {
	switch {
	case r.tr == nil:
	case sampled:
		r.tr.gate.Unlock()
	default:
		r.tr.gate.RUnlock()
	}
}

func (r *runner) opAt(i int64) op { return r.e.seq.Ops[i%int64(len(r.e.seq.Ops))] }

// readOnce sends op number i and checks its answer.
func (r *runner) readOnce(ctx context.Context, c client, i int64, traced bool) (sample, reply, bool) {
	e := r.e
	o := r.opAt(i)
	text := e.seq.Texts[o.Text]

	var lo, delAckedBefore int64
	if o.Text == e.dynamic {
		lo, delAckedBefore = r.insAcked.Load(), r.delAcked.Load()
	}
	r.attempted.Add(1)
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	rep, err := c.do(rctx, text, o, traced)
	cancel()
	if err == nil {
		switch {
		case o.Text == e.dynamic:
			err = r.checkWriteCount(o, rep, lo-r.delStarted.Load(), r.insStarted.Load()-delAckedBefore)
		case !e.oracles[o.Text].matches(rep.ans, o.Format):
			err = &mismatchError{Text: text, Want: e.oracles[o.Text], Got: rep.ans}
		}
	}
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", e.seq.Templates[o.Tmpl].Name, err))
	}
	return sample{lat: rep.lat, text: o.Text, tmpl: o.Tmpl, class: o.Class, ok: err == nil}, rep, err == nil
}

// checkWriteCount verifies a count of the write namespace against the
// writer's progress: lo documents were certainly live, hi at most.
func (r *runner) checkWriteCount(o op, rep reply, lo, hi int64) error {
	for n := lo; n <= hi; n++ {
		if countAnswer(n).matches(rep.ans, o.Format) {
			return nil
		}
	}
	return fmt.Errorf("write-namespace count outside [%d, %d] (%d rows, hash %x)", lo, hi, rep.ans.Rows, rep.ans.Lex)
}

// countAnswer is the canonical answer of a one-row COUNT(?d) AS ?n.
func countAnswer(n int64) answer {
	h := newRowHasher([]string{"n"})
	h.add([]cell{{Kind: kindLit, Value: fmt.Sprint(n), Datatype: xsd + "integer"}})
	return h.ans
}

// closedLoop runs readers (and on mixed-rw one writer) for dur: each
// client sends its next request only after the previous one completes.
func (r *runner) closedLoop(ctx context.Context, dur time.Duration) (*phase, error) {
	e := r.e
	readers := nClients
	if len(e.writes) > 0 {
		readers--
	}
	clients := make([]client, nClients)
	for i := range clients {
		c, err := e.newClient()
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients[i] = c
	}

	ph := &phase{}
	reads := make([][]sample, readers)
	start := time.Now()
	until := start.Add(dur)
	var wg sync.WaitGroup
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(until) {
				i := r.next.Add(1) - 1
				sampled := r.tr != nil && r.tr.samples(i)
				r.enter(sampled)
				var missesBefore uint64
				if sampled {
					missesBefore = e.db.QueryCacheStats().Misses
				}
				s, rep, ok := r.readOnce(ctx, clients[k], i, sampled)
				reads[k] = append(reads[k], s)
				if sampled && ok {
					r.tr.replay(ctx, i, r.opAt(i), rep, e.db.QueryCacheStats().Misses > missesBefore)
				}
				r.leave(sampled)
			}
		}(k)
	}
	if readers < nClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writer := clients[nClients-1]
			for time.Now().Before(until) && r.wnext < len(e.writes) {
				sampled := r.tr != nil && r.tr.samples(int64(r.wnext))
				r.enter(sampled)
				text := e.writes[r.wnext].Text()
				s := r.writeOnce(ctx, writer, e.writes[r.wnext], text)
				ph.writes = append(ph.writes, s)
				if sampled && s.ok {
					r.tr.replayWrite(ctx, int64(r.wnext), text, s.lat, r.kit)
				}
				r.leave(sampled)
				r.wnext++
			}
		}()
	}
	wg.Wait()
	ph.dur = time.Since(start)
	for _, rs := range reads {
		ph.reads = append(ph.reads, rs...)
	}
	return ph, nil
}

func (r *runner) writeOnce(ctx context.Context, c client, w writeOp, text string) sample {
	started, acked := &r.insStarted, &r.insAcked
	switch w.Kind {
	case writeDelete:
		started, acked = &r.delStarted, &r.delAcked
	case writeModify:
		started, acked = nil, nil
	}
	if started != nil {
		started.Add(1)
	}
	r.attempted.Add(1)
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	lat, err := c.update(rctx, text)
	cancel()
	if err != nil {
		// The write may or may not have been applied; the count check
		// can no longer be exact, and the run fails anyway.
		r.fail(fmt.Errorf("write: %w", err))
	} else {
		if acked != nil {
			acked.Add(1)
		}
		r.writeBytes += int64(len(text))
	}
	return sample{lat: lat, tmpl: w.Kind, ok: err == nil}
}

// openLoop sends rate requests per second on schedule, whether or not
// earlier ones have completed, and times each from its due time — so
// a stall charges every request queued behind it.
func (r *runner) openLoop(ctx context.Context, rate int, dur time.Duration) *phase {
	e := r.e
	n := int(dur.Seconds() * float64(rate))
	hc := newHTTPClient(e.httpAddr, 64)
	defer hc.close()
	ph := &phase{reads: make([]sample, n)}
	interval := time.Second / time.Duration(rate)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		sleepUntil(due)
		wait := time.Since(due)
		if wait > time.Millisecond {
			ph.late++
		}
		i := r.next.Add(1) - 1
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s, _, _ := r.readOnce(ctx, hc, i, false)
			s.lat += wait
			ph.reads[k] = s
		}(k)
	}
	wg.Wait()
	ph.dur = time.Since(start)
	return ph
}

// sleepUntil returns at t, not a timer tick after it: time.Sleep on a
// virtualized host overshoots by up to a millisecond, which would make
// every open-loop send late, so the last stretch is spun.
func sleepUntil(t time.Time) {
	const spin = 1500 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// --- statistics -------------------------------------------------------

// quantile returns the q-quantile of sorted values (linear
// interpolation between closest ranks); NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timing is a latency summary over a phase's correct samples: every
// sample of the window counts, so a stall that hits a few of them (a
// checkpoint, a GC pause, a group commit) shows in the p95.
type timing struct {
	P50, P95 float64
	N        int
}

func timingOf(samples []sample, keep func(sample) bool) timing {
	var lats []float64
	for _, s := range samples {
		if s.ok && keep(s) {
			lats = append(lats, ms(s.lat))
		}
	}
	if len(lats) == 0 {
		return timing{P50: math.NaN(), P95: math.NaN()}
	}
	sort.Float64s(lats)
	return timing{P50: quantile(lats, 0.50), P95: quantile(lats, 0.95), N: len(lats)}
}

// throughput is correct ops per second over the phase.
func throughput(samples []sample, dur time.Duration) float64 {
	ok := 0
	for _, s := range samples {
		if s.ok {
			ok++
		}
	}
	return float64(ok) / dur.Seconds()
}

// geomean is the geometric mean of per-template median latencies over
// the whole phase — SP2Bench's mean, which keeps the rare templates as
// visible as the common ones.
func geomean(samples []sample, templates int) float64 {
	by := make([][]float64, templates)
	for _, s := range samples {
		if s.ok {
			by[s.tmpl] = append(by[s.tmpl], ms(s.lat))
		}
	}
	var sum float64
	n := 0
	for _, v := range by {
		if len(v) > 0 {
			sum += math.Log(median(v))
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}
