// Package parallel provides the small worker-pool primitive shared by the
// round engine and the experiment harness: a deterministic-output parallel
// for-loop over an index range.
//
// Determinism is the caller's contract: fn(i) must write only to the i-th
// slot of its output and derive any randomness from i (not from shared
// state), so the result is bit-identical regardless of worker count or
// scheduling order.
//
// A panic in fn never ends the process from a worker goroutine: every entry
// point recovers it, waits for the other workers, and re-panics on the
// calling goroutine with the first recovered value, where the caller's own
// recover (a daemon's per-job guard) can see it.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob with one convention shared by
// every layer (engine Config.Workers, experiment RunConfig.Workers, the
// CLI -workers flags): values > 0 are returned as-is, 0 means serial (one
// worker), and negative means "use all CPUs" (runtime.NumCPU).
func Workers(w int) int {
	switch {
	case w > 0:
		return w
	case w < 0:
		return runtime.NumCPU()
	default:
		return 1
	}
}

// For invokes fn(i) for every i in [0, n), fanning the calls across the
// given number of worker goroutines. Indices are handed out dynamically
// (an atomic counter), so unevenly sized work items balance across the
// pool. workers <= 1 (or n <= 1) runs the loop inline on the calling
// goroutine with no synchronization overhead. For returns once every call
// has completed, and re-panics with the first panic of any call.
func For(n, workers int, fn func(i int)) {
	ForWorker(n, workers, func(_, i int) { fn(i) })
}

// ForWorker is For with the worker's pool slot exposed: fn(w, i) receives
// the index i to process and the identity w ∈ [0, workers) of the goroutine
// running it. Callers use w to index per-worker state — scratch arenas,
// accumulators — without synchronization, since each slot is owned by
// exactly one goroutine for the duration of the call. The inline
// (workers <= 1) path always passes w = 0.
func ForWorker(n, workers int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var first firstPanic
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer first.catch()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	first.rethrow()
}

// firstPanic holds the first panic value recovered from a fan-out's workers.
type firstPanic struct {
	mu     sync.Mutex
	caught bool
	val    any
}

// catch recovers a panic of the deferring goroutine and keeps it if it is
// the first. It must be deferred directly.
func (f *firstPanic) catch() {
	if r := recover(); r != nil {
		f.mu.Lock()
		if !f.caught {
			f.caught, f.val = true, r
		}
		f.mu.Unlock()
	}
}

// rethrow re-panics with the kept value, if any, and clears it. Call it once
// every worker has finished.
func (f *firstPanic) rethrow() {
	if f.caught {
		v := f.val
		f.caught, f.val = false, nil
		panic(v)
	}
}

// Pool is a persistent team of worker goroutines for spawn-heavy callers:
// where each ForWorker call pays one goroutine spawn and one closure
// allocation per worker, an open Pool serves many small fan-outs with zero
// per-call allocations — the workers park on their wake channels between
// runs. The channels and the workers' loops outlive Close, so reopening a
// pool that was open at least as wide before allocates nothing either. For
// a one-off fan-out, Fan starts its workers per call as ForWorker does, but
// reuses their bodies. The round engine opens a pool around a Sequential
// sweep, so hundreds of small speculation waves share the same goroutines,
// and runs its other fan-outs through Fan on the same pool.
//
// Open, Run, Fan and Close must all be called from the same goroutine. The
// zero value is a closed pool; Run on a closed pool executes inline.
type Pool struct {
	fn   func(w, i int)
	n    int
	next atomic.Int64
	// wake[w-1] is worker w's channel: true starts its share of a Run,
	// false ends its loop. loops[w-1] is that loop and shots[w] worker w's
	// body for Fan, each built once.
	wake  []chan bool
	loops []func()
	shots []func()
	open  int // workers spawned by the current Open; 0 when closed
	wg    sync.WaitGroup
	first firstPanic
}

// Open spawns workers-1 parked goroutines with identities 1..workers-1 (the
// calling goroutine acts as worker 0 during Run). No-op if the pool is
// already open or workers <= 1.
func (p *Pool) Open(workers int) {
	if p.open > 0 || workers <= 1 {
		return
	}
	for len(p.loops) < workers-1 {
		w := len(p.loops) + 1
		c := make(chan bool)
		p.wake = append(p.wake, c)
		p.loops = append(p.loops, func() {
			for <-c {
				p.runSlot(w)
				p.wg.Done()
			}
		})
	}
	p.open = workers - 1
	for _, loop := range p.loops[:p.open] {
		go loop()
	}
}

// Close releases the worker goroutines: it returns once each has left its
// loop. The pool can be reopened. No-op on a closed pool.
func (p *Pool) Close() {
	for _, c := range p.wake[:p.open] {
		c <- false
	}
	p.open = 0
}

// Fan invokes fn(w, i) for every i in [0, n) with ForWorker's contract and
// scheduling: it starts min(workers, n) goroutines for the call and waits
// for them, so a one-off fan-out's workers start as soon as ForWorker's do,
// without the wake-up a parked worker needs. Unlike ForWorker it reuses the
// workers' bodies, so a call no wider than an earlier one allocates
// nothing. It may run whether or not the pool is open, from the goroutine
// that owns the pool.
func (p *Pool) Fan(n, workers int, fn func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	for len(p.shots) < workers {
		w := len(p.shots)
		p.shots = append(p.shots, func() {
			defer p.wg.Done()
			p.runSlot(w)
		})
	}
	p.fn, p.n = fn, n
	p.next.Store(0)
	p.wg.Add(workers)
	for _, shot := range p.shots[:workers] {
		go shot()
	}
	p.wg.Wait()
	p.fn = nil
	p.first.rethrow()
}

// Run invokes fn(w, i) for every i in [0, n) across the pool's workers plus
// the calling goroutine, with the same contract as ForWorker (dynamic index
// handout, per-slot determinism, returns when every call completed, re-panics
// with the first panic of any call and stays usable afterwards). A closed
// pool, or n <= 1, runs inline as worker 0.
func (p *Pool) Run(n int, fn func(w, i int)) {
	if n <= 1 || p.open == 0 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.fn, p.n = fn, n
	p.next.Store(0)
	active := min(p.open, n-1)
	p.wg.Add(active)
	for _, c := range p.wake[:active] {
		c <- true
	}
	p.runSlot(0)
	p.wg.Wait()
	p.fn = nil
	p.first.rethrow()
}

// runSlot runs worker w's share of the current Run, recovering its panic.
func (p *Pool) runSlot(w int) {
	defer p.first.catch()
	p.run(w)
}

func (p *Pool) run(w int) {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		p.fn(w, i)
	}
}
