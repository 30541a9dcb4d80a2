// Package experiment regenerates every table and figure of the paper's
// evaluation (Sec. V) plus the ablations listed in DESIGN.md. Each runner is
// deterministic given a seed, produces a human-readable text rendering, CSV
// data series, and a list of shape checks — assertions about the qualitative
// result the paper reports (who wins, what is monotone, where ratios land)
// rather than absolute numbers.
package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"laacad/internal/parallel"
	"laacad/internal/region"
	"laacad/internal/scenario"
)

// RunConfig parameterizes a runner invocation.
type RunConfig struct {
	// Quick shrinks workloads for CI/tests; the full sizes match the paper.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Workers is the number of goroutines running independent trials
	// (deployments within a sweep) concurrently, with the same convention
	// as core Config.Workers: 0 or 1 = serial, negative = runtime.NumCPU.
	// Every trial is seeded independently, so outputs are byte-identical
	// for any worker count.
	Workers int
	// Ctx, when non-nil, cancels in-flight deployments and skips pending
	// trials — SIGINT on cmd/experiments aborts a sweep mid-deployment
	// instead of at the next experiment boundary.
	Ctx context.Context
}

// Context returns the run's cancellation context (Background if unset).
func (c RunConfig) Context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// forTrials fans fn(i) for i in [0, n) across the configured trial workers
// and returns the first error by trial index. fn must confine its writes to
// the i-th slot of its outputs so results are deterministic; callers render
// tables and evaluate shape checks serially afterwards. Trials not yet
// started when cfg.Ctx is cancelled fail fast with the context error.
func forTrials(n int, cfg RunConfig, fn func(i int) error) error {
	ctx := cfg.Context()
	errs := make([]error, n)
	parallel.For(n, parallel.Workers(cfg.Workers), func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Check is one shape assertion evaluated by a runner.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Output is the product of one experiment runner.
type Output struct {
	// Name is the experiment ID (fig1 … table2, ablation-…).
	Name string
	// Title describes the paper artifact being regenerated.
	Title string
	// Text is the human-readable rendering (tables, ASCII plots).
	Text string
	// CSV maps series names to CSV documents for external plotting.
	CSV map[string]string
	// Checks are the shape assertions with their outcomes.
	Checks []Check
}

// Failed returns the names of failed checks.
func (o *Output) Failed() []string {
	var out []string
	for _, c := range o.Checks {
		if !c.OK {
			out = append(out, c.Name+": "+c.Detail)
		}
	}
	return out
}

// Summary renders the text plus a PASS/FAIL line per check.
func (o *Output) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n\n", o.Name, o.Title)
	b.WriteString(o.Text)
	if len(o.Checks) > 0 {
		b.WriteString("\nShape checks:\n")
		for _, c := range o.Checks {
			status := "PASS"
			if !c.OK {
				status = "FAIL"
			}
			fmt.Fprintf(&b, "  [%s] %-38s %s\n", status, c.Name, c.Detail)
		}
	}
	return b.String()
}

// Runner regenerates one paper artifact.
type Runner func(cfg RunConfig) (*Output, error)

// registry maps experiment IDs to runners; populated by init functions in
// the sibling files.
var registry = map[string]Runner{}

func register(name string, r Runner) {
	if _, dup := registry[name]; dup {
		panic("experiment: duplicate runner " + name)
	}
	registry[name] = r
}

// Names returns the registered experiment IDs in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment.
func Run(name string, cfg RunConfig) (*Output, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown experiment %q (have %v)", name, Names())
	}
	return r(cfg)
}

// resolve returns the named region and placement from the scenario
// registry; the harness resolves all geometry by name, the same way the
// CLIs do, instead of hand-wiring constructors.
func resolve(regionName, placementName string) (*region.Region, scenario.PlacementFunc, error) {
	reg, err := scenario.LookupRegion(regionName)
	if err != nil {
		return nil, nil, err
	}
	place, err := scenario.LookupPlacement(placementName)
	if err != nil {
		return nil, nil, err
	}
	return reg, place, nil
}

// check is a small helper to build Check values.
func check(name string, ok bool, format string, args ...any) Check {
	return Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// f64 formats a float compactly for tables.
func f64(v float64) string { return fmt.Sprintf("%.4g", v) }
