package core

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"

	"scisparql/internal/engine"
)

// TestShellServe pins the request shell's rules: a panic becomes
// engine.ErrInternal with its value and stack logged, not returned; a
// parent's cancellation and Drain both cancel a request in flight; and
// after Drain a request is refused with ErrShutdown before it runs.
func TestShellServe(t *testing.T) {
	var log bytes.Buffer
	sh := &Shell{Logger: slog.New(slog.NewTextHandler(&log, nil))}

	_, err := sh.Serve(nil, func(context.Context) error { panic("shell test panic") })
	if !errors.Is(err, engine.ErrInternal) || strings.Contains(err.Error(), "shell test panic") {
		t.Fatalf("panic: got %v, want ErrInternal without the panic value", err)
	}
	if code, msg := WireError(err); code != "internal" || msg != "internal error" {
		t.Fatalf("panic on the wire: %q %q", code, msg)
	}
	if s := log.String(); !strings.Contains(s, "shell test panic") || !strings.Contains(s, "goroutine") {
		t.Fatalf("panic value or stack missing from the log:\n%s", s)
	}

	parent, cancel := context.WithCancel(context.Background())
	_, err = sh.Serve(parent, func(ctx context.Context) error {
		cancel()
		return waitDone(ctx)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parent cancellation: got %v", err)
	}

	for _, parent := range []context.Context{nil, context.Background()} {
		sh := &Shell{}
		_, err := sh.Serve(parent, func(ctx context.Context) error {
			sh.Drain()
			return waitDone(ctx)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("drain in flight (parent %v): got %v", parent, err)
		}
		ran := false
		_, err = sh.Serve(parent, func(context.Context) error { ran = true; return nil })
		if ran || !errors.Is(err, ErrShutdown) || !sh.Draining() {
			t.Fatalf("after drain: ran %v, err %v", ran, err)
		}
		sh.Drain() // idempotent
	}
}

// waitDone returns ctx's error once it is cancelled, or nil if that
// has not happened within five seconds.
func waitDone(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(5 * time.Second):
		return nil
	}
}
