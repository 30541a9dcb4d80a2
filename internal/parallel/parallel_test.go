package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != 1 {
		t.Errorf("Workers(0) = %d, want 1 (serial)", got)
	}
	if got := Workers(-1); got != runtime.NumCPU() {
		t.Errorf("Workers(-1) = %d, want NumCPU=%d", got, runtime.NumCPU())
	}
}

// Every index is visited exactly once, for serial and parallel pools, and
// for pools larger than the index range.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7, 100} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			visits := make([]int32, n)
			For(n, workers, func(i int) {
				atomic.AddInt32(&visits[i], 1)
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// Per-slot writes need no synchronization and land deterministically.
func TestForSlotWritesDeterministic(t *testing.T) {
	const n = 500
	want := make([]int, n)
	For(n, 1, func(i int) { want[i] = i * i })
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		got := make([]int, n)
		For(n, workers, func(i int) { got[i] = i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// ForWorker must hand every index to exactly one worker slot, with slot IDs
// in [0, workers), and per-slot state must need no synchronization.
func TestForWorkerSlotIdentity(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		slots := make([]int, n)
		For(n, 1, func(i int) { slots[i] = -1 })
		ForWorker(n, workers, func(w, i int) {
			if w < 0 || w >= workers {
				panic("worker slot out of range")
			}
			slots[i] = w
		})
		perSlot := make(map[int]int)
		for i, w := range slots {
			if w < 0 {
				t.Fatalf("workers=%d: index %d not visited", workers, i)
			}
			perSlot[w]++
		}
		if len(perSlot) > workers {
			t.Fatalf("workers=%d: %d distinct slots used", workers, len(perSlot))
		}
	}
	// Inline path must always use slot 0.
	ForWorker(5, 1, func(w, i int) {
		if w != 0 {
			t.Fatalf("inline path passed slot %d", w)
		}
	})
}

// A Pool distributes every index exactly once per Run, across many reuses
// of the same parked workers, and runs inline once closed.
func TestPoolVisitsEachIndexOnce(t *testing.T) {
	var p Pool
	p.Open(4)
	defer p.Close()
	for run := 0; run < 50; run++ {
		n := run % 7 * 13 // exercises 0, 1, and multi-index runs
		visits := make([]int32, n)
		p.Run(n, func(w, i int) {
			if w < 0 || w >= 4 {
				t.Errorf("worker identity %d out of range", w)
			}
			atomic.AddInt32(&visits[i], 1)
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("run %d: index %d visited %d times", run, i, v)
			}
		}
	}
}

// Run on a closed (zero-value) pool executes inline as worker 0.
func TestPoolClosedRunsInline(t *testing.T) {
	var p Pool
	sum := 0
	p.Run(5, func(w, i int) {
		if w != 0 {
			t.Errorf("closed pool used worker %d", w)
		}
		sum += i
	})
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
}

// A wave launch on an open pool performs no heap allocation — the property
// the round engine's speculation waves rely on.
func TestPoolRunAllocFree(t *testing.T) {
	var p Pool
	p.Open(2)
	defer p.Close()
	var sink atomic.Int64
	fn := func(w, i int) { sink.Add(int64(i)) }
	p.Run(8, fn) // warm up
	allocs := testing.AllocsPerRun(100, func() { p.Run(8, fn) })
	if allocs > 0 {
		t.Fatalf("Run allocated %.1f times per call, want 0", allocs)
	}
}

// Reopening a pool at no more than its widest earlier width allocates
// nothing: the wake channels and the worker loops outlive Close, and Close
// returns only once every worker has left its loop. Fan, no wider than an
// earlier call, allocates nothing either.
func TestPoolReopenAllocFree(t *testing.T) {
	var p Pool
	var sink atomic.Int64
	fn := func(w, i int) { sink.Add(int64(i)) }
	cycle := func(workers int) {
		p.Open(workers)
		p.Run(16, fn)
		p.Close()
	}
	base := runtime.NumGoroutine()
	cycle(4) // builds the channels and loops
	p.Fan(16, 4, fn)
	warmGoroutineCache()
	for _, workers := range []int{2, 4, 3} {
		if allocs := testing.AllocsPerRun(50, func() { cycle(workers) }); allocs > 0 {
			t.Errorf("workers=%d: Open+Run+Close allocated %.1f times per cycle, want 0", workers, allocs)
		}
	}
	// A released worker has left its loop but may still be exiting.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after the cycles, %d before: a closed pool left workers running", got, base)
	}
	for _, workers := range []int{2, 4, 3} {
		if allocs := testing.AllocsPerRun(50, func() { p.Fan(16, workers, fn) }); allocs > 0 {
			t.Errorf("workers=%d: Fan allocated %.1f times per call, want 0", workers, allocs)
		}
	}
	want := int64((2 + 51*3*2) * (16 * 15 / 2))
	if got := sink.Load(); got != want {
		t.Errorf("runs summed %d, want %d", got, want)
	}
}

// warmGoroutineCache starts and retires a few hundred goroutines, so the
// scheduler's free lists hold retired goroutine structs, as they do in any
// process that has run a while; otherwise an allocation count early in the
// test binary's life includes the runtime allocating the first ones.
func warmGoroutineCache() {
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 512; i++ {
		wg.Add(1)
		go func() {
			<-release
			wg.Done()
		}()
	}
	close(release)
	wg.Wait()
}

// A panic in one call reaches the caller of every entry point with its
// value, after every worker has finished, at every worker count; a second
// fan-out (on the same pool) then completes.
func TestWorkerPanicReachesCaller(t *testing.T) {
	const n, bad = 64, 37
	catch := func(run func()) (v any) {
		defer func() { v = recover() }()
		run()
		return nil
	}
	for _, workers := range []int{1, 2, 4} {
		var p Pool
		p.Open(workers)
		entries := []struct {
			name string
			run  func(fn func(w, i int))
		}{
			{"ForWorker", func(fn func(w, i int)) { ForWorker(n, workers, fn) }},
			{"Pool.Run", func(fn func(w, i int)) { p.Run(n, fn) }},
			{"Pool.Fan", func(fn func(w, i int)) { p.Fan(n, workers, fn) }},
		}
		for _, e := range entries {
			var calls atomic.Int64
			v := catch(func() {
				e.run(func(_, i int) {
					calls.Add(1)
					if i == bad {
						panic(fmt.Sprintf("boom at %d", i))
					}
				})
			})
			if v != fmt.Sprintf("boom at %d", bad) {
				t.Fatalf("%s workers=%d: caller recovered %v", e.name, workers, v)
			}
			if workers > 1 && calls.Load() != n {
				t.Fatalf("%s workers=%d: %d calls before the re-panic, want all %d", e.name, workers, calls.Load(), n)
			}
			var sum atomic.Int64
			e.run(func(_, i int) { sum.Add(int64(i)) })
			if sum.Load() != n*(n-1)/2 {
				t.Fatalf("%s workers=%d: second run summed %d, want %d", e.name, workers, sum.Load(), n*(n-1)/2)
			}
		}
		p.Close()
	}
}
