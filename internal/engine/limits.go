package engine

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"time"
)

// Typed failure classes of a query execution. Callers (and the wire
// protocol) distinguish them with errors.Is: a timeout or resource
// overrun is the query's fault and the server stays healthy; an
// internal error is a trapped engine panic.
var (
	// ErrQueryTimeout reports that a query exceeded its wall-clock
	// deadline (a context deadline or Limits.Timeout).
	ErrQueryTimeout = errors.New("query deadline exceeded")

	// ErrQueryCancelled reports that a query's context was cancelled
	// before it completed (client disconnect, server shutdown).
	ErrQueryCancelled = errors.New("query cancelled")

	// ErrResourceLimit reports that a query exceeded a configured
	// resource budget (result rows or intermediate bindings).
	ErrResourceLimit = errors.New("query resource limit exceeded")

	// ErrInternal reports an engine panic trapped at an entry point.
	// The stack is logged; the query fails but the process survives.
	ErrInternal = errors.New("internal error")
)

// Limits bounds one query execution. The zero value imposes no bounds.
type Limits struct {
	// Timeout is the wall-clock deadline for the whole execution
	// (0 = none). It composes with any deadline already on the
	// caller's context; the earlier one wins.
	Timeout time.Duration
	// MaxResultRows caps the rows a SELECT may return (0 = unlimited).
	// Exceeding it fails the query with ErrResourceLimit rather than
	// silently truncating.
	MaxResultRows int
	// MaxBindings caps the intermediate bindings produced while
	// enumerating solutions (0 = unlimited) — the budget that stops
	// runaway joins and property-path expansions before they exhaust
	// memory.
	MaxBindings int64
}

// Tighten resolves l against other field by field: a zero (or negative,
// which the wire could carry) field defers to other's, and two set
// bounds take the smaller — a caller can tighten the limits it is
// given, never loosen them.
func (l Limits) Tighten(other Limits) Limits {
	return Limits{
		Timeout:       tighter(l.Timeout, other.Timeout),
		MaxResultRows: tighter(l.MaxResultRows, other.MaxResultRows),
		MaxBindings:   tighter(l.MaxBindings, other.MaxBindings),
	}
}

func tighter[T int | int64 | time.Duration](a, b T) T {
	if a <= 0 {
		return b
	}
	if b > 0 && b < a {
		return b
	}
	return a
}

// ContextErr maps a context's error state to the typed query errors
// (nil when the context is still live).
func ContextErr(ctx context.Context) error {
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrQueryTimeout
	default:
		return ErrQueryCancelled
	}
}

// guardPollMask amortizes the cancellation poll: the done channel is
// inspected once per 256 guard events, so a cancelled query stops
// within a few hundred bindings while the per-binding overhead stays
// at a counter increment.
const guardPollMask = 255

// queryGuard carries the cancellation and budget state of one query
// execution. It is confined to the single goroutine evaluating the
// query; a nil guard (legacy call paths) imposes nothing.
type queryGuard struct {
	ctx         context.Context
	done        <-chan struct{}
	maxBindings int64
	maxRows     int
	bindings    int64
	polls       uint64
	failed      error // first violation; re-returned on every check
}

func newQueryGuard(ctx context.Context, lim Limits) *queryGuard {
	if ctx == nil {
		ctx = context.Background()
	}
	return &queryGuard{ctx: ctx, done: ctx.Done(), maxBindings: lim.MaxBindings, maxRows: lim.MaxResultRows}
}

// resultRowCap returns the result-row budget (0 = unlimited), letting
// the execution pipeline fail a row overrun while building rows rather
// than after the whole result set is materialized.
func (gq *queryGuard) resultRowCap() int {
	if gq == nil {
		return 0
	}
	return gq.maxRows
}

// errResultRows is the typed failure for a result-row overrun, shared
// by the incremental check and the final boundary check.
func errResultRows(cap int) error {
	return fmt.Errorf("%w: result rows exceed %d", ErrResourceLimit, cap)
}

// step accounts one intermediate binding against the budget and
// occasionally polls for cancellation. It returns the typed error that
// aborts the execution, nil while the query may proceed.
func (gq *queryGuard) step() error {
	if gq == nil {
		return nil
	}
	if gq.failed != nil {
		return gq.failed
	}
	gq.bindings++
	if gq.maxBindings > 0 && gq.bindings > gq.maxBindings {
		gq.failed = fmt.Errorf("%w: intermediate bindings exceed %d", ErrResourceLimit, gq.maxBindings)
		return gq.failed
	}
	return gq.tick()
}

// batch accounts n intermediate bindings at once — the vectorized
// path's counterpart of n step() calls — and polls for cancellation
// once per batch (batch boundaries are the natural poll points of
// block-at-a-time execution).
func (gq *queryGuard) batch(n int) error {
	if gq == nil {
		return nil
	}
	if gq.failed != nil {
		return gq.failed
	}
	gq.bindings += int64(n)
	if gq.maxBindings > 0 && gq.bindings > gq.maxBindings {
		gq.failed = fmt.Errorf("%w: intermediate bindings exceed %d", ErrResourceLimit, gq.maxBindings)
		return gq.failed
	}
	return gq.checkCtx()
}

// tick polls for cancellation without consuming budget — for loops
// that revisit work rather than producing new bindings (aggregation
// folds, projection evaluation, ORDER BY).
func (gq *queryGuard) tick() error {
	if gq == nil {
		return nil
	}
	if gq.failed != nil {
		return gq.failed
	}
	gq.polls++
	if gq.polls&guardPollMask != 0 {
		return nil
	}
	return gq.checkCtx()
}

// checkCtx inspects the context immediately (entry points, batch
// boundaries).
func (gq *queryGuard) checkCtx() error {
	if gq == nil {
		return nil
	}
	if gq.failed != nil {
		return gq.failed
	}
	select {
	case <-gq.done:
		gq.failed = ContextErr(gq.ctx)
		return gq.failed
	default:
		return nil
	}
}

// matchCtx is the context the graph's batched enumerations should
// check at batch boundaries (nil when unguarded).
func (c *evalCtx) matchCtx() context.Context {
	if c.guard == nil {
		return nil
	}
	return c.guard.ctx
}

// kernelErr classifies an error out of an array kernel run under
// matchCtx. When the guard has failed — a deadline or cancellation the
// kernel's own context check saw, or a budget a function value it
// applied ran out of — the query fails with the guard's typed error;
// anything else is an expression error (§3.6), which FILTER reads as
// false and a projection or BIND as unbound.
func (c *evalCtx) kernelErr(err error) error {
	if gerr := c.guard.checkCtx(); gerr != nil {
		return gerr
	}
	return &exprError{msg: err.Error()}
}

// trapPanic converts a panic inside an engine entry point into an
// ErrInternal-wrapped error with the stack logged, so one buggy query
// (or foreign function) can never take down the process.
func trapPanic(op string, err *error) {
	if r := recover(); r != nil {
		log.Printf("engine: panic during %s: %v\n%s", op, r, debug.Stack())
		*err = fmt.Errorf("%w: panic during %s: %v", ErrInternal, op, r)
	}
}
