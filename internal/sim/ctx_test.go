package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"qosrm/internal/rm"
)

// TestRunCtxCancelled pins the static engine's cancellation contract: a
// cancelled context aborts the run with the context's error and no
// result, and a nil context changes nothing.
func TestRunCtxCancelled(t *testing.T) {
	d := sharedDB(t)
	workload := apps(t, "mcf", "povray")
	cfg := Config{RM: rm.RM3}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, d, workload, cfg, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}

	if _, err := RunCtx(nil, d, workload, cfg, nil); err != nil {
		t.Fatalf("nil-context run failed: %v", err)
	}
}

// TestRunDynamicCtxCancelled does the same for the dynamic engine, and
// additionally checks that a mid-run cancellation lands promptly rather
// than only at the end of the simulation.
func TestRunDynamicCtxCancelled(t *testing.T) {
	d := sharedDB(t)
	dyn := Dynamic{Queues: []Queue{
		{Jobs: []Job{{App: apps(t, "mcf")[0]}}},
		{Jobs: []Job{{App: apps(t, "povray")[0]}}},
	}}
	cfg := Config{RM: rm.RM3}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunDynamicCtx(ctx, d, dyn, cfg, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}

	// Mid-run: cancel from the trace hook at the first interval
	// boundary; the loop's next cancellation check must abort the run.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cfg2 := cfg
	cfg2.Trace = func(Event) { cancel2() }
	start := time.Now()
	if _, err := RunDynamicCtx(ctx2, d, dyn, cfg2, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("mid-run cancel took %v, not prompt", elapsed)
	}
}
