package shard

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"laacad/internal/core"
	"laacad/internal/region"
)

// TestDroppedEngineLeaksNoGoroutines drops engines that never ran to a
// clean completion: three 4-shard runs interrupted from the observer after
// round 1, and one engine stepped twice through Step. Nothing may outlive
// them — an engine holds no goroutine between calls, so there is nothing to
// release.
func TestDroppedEngineLeaksNoGoroutines(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := core.DefaultConfig(2)
	before := runtime.NumGoroutine()
	for seed := int64(1); seed <= 3; seed++ {
		eng, err := New(reg, uniformStart(200, seed), cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		eng.SetObserver(func(core.RoundStats) error { cancel(); return nil })
		if _, err := eng.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: Run error %v, want context.Canceled", seed, err)
		}
		if eng.Round() != 1 {
			t.Fatalf("seed %d: interrupted after round %d, want 1", seed, eng.Round())
		}
	}
	eng, err := New(reg, uniformStart(200, 4), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step()
	eng.Step()

	// Fan-out goroutines may still be unwinding after their WaitGroup
	// released the caller; give them a moment before judging.
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); got > before && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if got > before {
		t.Fatalf("goroutines: %d after dropping the engines, %d before", got, before)
	}
}
