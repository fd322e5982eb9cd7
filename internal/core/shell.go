package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"scisparql/internal/engine"
	"scisparql/internal/metrics"
	"scisparql/internal/protocol"
)

// ErrShutdown refuses a request that arrives while its front door is
// draining.
var ErrShutdown = errors.New("server shutting down")

// Shell is the request shell both front doors embed, the framed-TCP
// server (internal/server) and the HTTP front (internal/httpfront): the
// drain switch and base context, the panic trap (Serve), the error
// classifier (WireError), and the latency histogram and slow-query log
// (Observe). Each front keeps only its codec: decode a request, admit
// it, dispatch it, encode the answer. The zero value is ready to use.
type Shell struct {
	// Logger receives structured output: the slow-query log and the
	// panic trap. Nil uses slog.Default(). Set before serving.
	Logger *slog.Logger

	// SlowQuery is the duration at or above which a request is logged
	// through Logger. Zero disables the slow-query log. Set before
	// serving.
	SlowQuery time.Duration

	// Metrics is the registry the front instruments. Nil uses
	// metrics.Default(). Set before serving.
	Metrics *metrics.Registry

	once     sync.Once
	ctx      context.Context // parents every request; cancelled by Drain
	cancel   context.CancelFunc
	draining atomic.Bool
}

func (sh *Shell) base() context.Context {
	sh.once.Do(func() { sh.ctx, sh.cancel = context.WithCancel(context.Background()) })
	return sh.ctx
}

// Drain refuses every later request with ErrShutdown and cancels the
// contexts of the requests in flight. It is idempotent.
func (sh *Shell) Drain() {
	sh.draining.Store(true)
	sh.base()
	sh.cancel()
}

// Draining reports whether Drain has been called.
func (sh *Shell) Draining() bool { return sh.draining.Load() }

// Registry returns the configured metrics registry (the process default
// when unset).
func (sh *Shell) Registry() *metrics.Registry { return cmp.Or(sh.Metrics, metrics.Default()) }

// Serve runs one request under the shell's rules and reports its error
// and how long it took. While draining, run is not called and the error
// is ErrShutdown. Otherwise run gets a context that Drain cancels,
// merged with parent when parent is non-nil (an HTTP client's context;
// TCP has none). A panic in run is trapped: its value and stack go to
// the log, and the error is engine.ErrInternal.
func (sh *Shell) Serve(parent context.Context, run func(context.Context) error) (dur time.Duration, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			cmp.Or(sh.Logger, slog.Default()).Error("panic while handling request",
				"panic", fmt.Sprint(r),
				"stack", string(debug.Stack()))
			err = engine.ErrInternal
		}
		dur = time.Since(start)
	}()
	if sh.draining.Load() {
		return 0, ErrShutdown
	}
	ctx := sh.base()
	if parent != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(parent)
		defer cancel()
		defer context.AfterFunc(sh.base(), cancel)()
	}
	return 0, run(ctx)
}

// Observe records one query-class request of dur on the front's latency
// histogram; at or above SlowQuery it also counts it on slow and logs a
// "slow query" line. describe, called only then, returns the request's
// text and the front's own attributes.
func (sh *Shell) Observe(latency *metrics.Histogram, slow *metrics.Counter, dur time.Duration, describe func() (query string, attrs []any)) {
	latency.Observe(dur.Seconds())
	if sh.SlowQuery <= 0 || dur < sh.SlowQuery {
		return
	}
	slow.Inc()
	query, attrs := describe()
	cmp.Or(sh.Logger, slog.Default()).Warn("slow query", append(attrs,
		"duration", dur.String(),
		"query", metrics.TruncateQuery(query))...)
}

// WireError classifies a failed request for both transports: its wire
// code (one of the protocol.Code constants) and the message a client may
// see. A trapped panic's message is its class only; the value and stack
// stay in the log.
func WireError(err error) (code, msg string) {
	switch {
	case errors.Is(err, engine.ErrQueryTimeout) || errors.Is(err, context.DeadlineExceeded):
		code = protocol.CodeTimeout
	case errors.Is(err, engine.ErrResourceLimit):
		code = protocol.CodeResourceLimit
	case errors.Is(err, engine.ErrQueryCancelled) || errors.Is(err, context.Canceled):
		code = protocol.CodeCancelled
	case errors.Is(err, engine.ErrInternal):
		return protocol.CodeInternal, engine.ErrInternal.Error()
	case errors.Is(err, ErrShutdown):
		code = protocol.CodeShutdown
	case errors.Is(err, ErrDurability):
		code = protocol.CodeDurability
	case errors.Is(err, ErrShardUnavailable):
		code = protocol.CodeShardUnavailable
	default:
		code = protocol.CodeError
	}
	return code, err.Error()
}
