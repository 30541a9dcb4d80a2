// Package metrics is a small expvar-style registry of named int64 metrics —
// the process-level observability surface over a running deployment.
//
// Two kinds of metric live in a Registry:
//
//   - Counter: an atomic cell owned by the registry. Producers publish into
//     it with Set/Add; readers Load it at any time. The engine's cumulative
//     work counters (cache invalidation work, speculation accounting,
//     boundary-flag evaluations, index rebuilds) are snapshotted into
//     counters once per round by an observer, because their underlying
//     fields are plain ints owned by the engine goroutine.
//
//   - Gauge: a read-time callback returning the current value. Gauges are
//     registered only over sources that are themselves safe for concurrent
//     reads (true atomics: the WSN's message total, the halo-traffic
//     totals), so sampling a gauge mid-round is exact, never torn.
//
// The registry serializes to a flat JSON object with sorted keys
// (WriteJSON), and implements http.Handler so a live process can expose it
// with one line — see the -metrics flag of cmd/laacad.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a registry-owned atomic cell. The zero value is ready to use,
// but Counters are normally obtained from Registry.Counter so they are
// published.
type Counter struct {
	v atomic.Int64
}

// Set stores v.
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Add adds d and returns the new value.
func (c *Counter) Add(d int64) int64 { return c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Registry is a set of named metrics. The zero value is ready to use. All
// methods are safe for concurrent use; registration is idempotent by name.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]func() int64
}

// Counter returns the counter registered under name, creating it if needed.
// Registering a name that already holds a gauge panics: the two kinds answer
// reads differently and a silent replacement would corrupt dashboards.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge", name))
	}
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers fn as the read-time source for name, replacing any
// previous gauge under that name. fn must be safe to call from any
// goroutine at any time — register only over atomically-read sources.
// Registering over an existing counter panics.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a counter", name))
	}
	if r.gauges == nil {
		r.gauges = make(map[string]func() int64)
	}
	r.gauges[name] = fn
}

// Snapshot evaluates every metric and returns the values by name.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	fns := make(map[string]func() int64, len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	for name, fn := range r.gauges {
		fns[name] = fn
	}
	r.mu.RUnlock()
	// Gauges run outside the lock: they may read foreign state and must not
	// be able to deadlock registration.
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// WriteJSON writes the current snapshot as one flat JSON object with keys
// in sorted order, so successive scrapes diff cleanly.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, name := range names {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s\n  %q: %d", sep, name, snap[name]); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

// ServeHTTP implements http.Handler: the snapshot as application/json.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = r.WriteJSON(w)
}
