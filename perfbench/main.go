// Command perfbench is laacad's end-to-end benchmark. It drives the system
// only through its public functions — scenario runners, the round engines,
// coverage verification and the laacadd service over loopback HTTP — times
// each workload from outside, checks every result, and prints one JSON line
// of metrics last.
//
// Usage (from the repository root; run.sh builds and runs this package):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics; --trace 1 drives the same
// workload with a span around every layer call and reports the per-layer
// metrics, a self-time table and the tracing overhead against the last
// untraced run of the same workload and seed. Reports and span files are
// written under .bench_out/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the workload seed when --seed is omitted; the fleet-heal
// and daemon-jobs digests are pinned at it.
const defaultSeed = 1

// outDir holds reports, span files and daemon spools, relative to the
// working directory.
const outDir = ".bench_out"

// metricDef names one reported metric. The same definitions back the
// BENCHMARK.json lists; a test keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"solve_ms", "ms", "lower"},
	{"first_round_ms", "ms", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"alloc_mb", "MB", "lower"},
}

// regionNames are the regions whose per-node kernel cost is reported.
var regionNames = []string{"square", "lshape", "obstacles2", "campus"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.new_runner_ms", "ms", "lower"},
		{"core.step_p50_us", "us", "lower"},
		{"core.step_p99_us", "us", "lower"},
		{"core.cold_step_ms", "ms", "lower"},
		{"core.finalize_ms", "ms", "lower"},
		{"core.rounds", "count", "lower"},
		{"core.nodes_recomputed", "count", "lower"},
		{"core.cache_hit_ratio", "ratio", "higher"},
		{"core.heal_nodes_recomputed_p50", "count", "lower"},
		{"core.invalidation_visits", "count", "lower"},
		{"core.pair_scans", "count", "lower"},
		{"core.spec_used_ratio", "ratio", "higher"},
		{"core.levels", "count", "lower"},
		{"boundary.flag_evals", "count", "lower"},
	}
	for _, r := range regionNames {
		defs = append(defs,
			metricDef{"voronoi.region_us." + r, "us", "lower"},
			metricDef{"geom.chebyshev_us." + r, "us", "lower"},
			metricDef{"region.pieces." + r, "count", "lower"})
	}
	return append(defs, []metricDef{
		{"wsn.rebuilds", "count", "lower"},
		{"wsn.incremental_moves", "count", "lower"},
		{"wsn.messages", "count", "lower"},
		{"shard.step_p50_us", "us", "lower"},
		{"shard.halo_msgs", "count", "lower"},
		{"shard.halo_bytes", "bytes", "lower"},
		{"shard.exchanges", "count", "lower"},
		{"coverage.verify_ms", "ms", "lower"},
		{"service.submit_p50_ms", "ms", "lower"},
		{"service.result_p50_ms", "ms", "lower"},
		{"service.queue_wait_p50_ms", "ms", "lower"},
		{"service.run_p50_ms", "ms", "lower"},
		{"service.events_per_job", "count", "lower"},
		{"service.journal_syncs_per_job", "count", "lower"},
		{"service.journal_sync_ms", "ms", "lower"},
		{"service.journal_bytes_per_job", "bytes", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_pause_ms", "ms", "lower"},
	}...)
}()

// runConfig is one invocation's inputs.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil when untraced
}

// outcome is what a workload hands back: its end-to-end metrics, its
// per-layer metrics (traced runs only) and the facts the report records.
type outcome struct {
	endToEnd map[string]float64
	perLayer map[string]float64
	passes   int
	clients  int // goroutines driving the system (engines fan out on their own)
	conns    int // HTTP connections the load generator may hold open
	details  map[string]any
}

type workload struct {
	name, why string
	run       func(cfg runConfig, chk *checker) (*outcome, error)
}

var workloads = []workload{
	{"paper-converge", "the paper's five regimes run serially to convergence; nearly every node moves every round, so it bypasses the cache, parallel waves, shards and the service", runPaper},
	{"fleet-heal", "10k-node cold deployments (shared, sharded, Sequential localized, campus) then seeded single-node failures healed on 2 workers; cache, index, waves and shards all engage", runFleet},
	{"daemon-jobs", "short capped jobs through an in-process laacadd over loopback HTTP with 2 closed-loop clients; HTTP, JSON, journal fsync and SSE dominate", runDaemon},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	printDigests := fs.Bool("print-digests", false, "print the result digests this seed produces (for pinning)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{workload: wl.name, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	chk := newChecker(cfg.tr)
	pinsPrinted = *printDigests
	res, err := wl.run(cfg, chk)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	chk.verifyCoverage()
	if cfg.tr != nil {
		res.perLayer["coverage.verify_ms"] = median(durations(cfg.tr.snapshot(), "coverage.verify")) / 1e6
	}
	return report(cfg, wl, res, chk, stdout, stderr)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runRecord is the machine-readable report written next to the spans.
type runRecord struct {
	Workload   string             `json:"workload"`
	Why        string             `json:"why"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Clients    int                `json:"load_goroutines"`
	Conns      int                `json:"load_connections"`
	Passes     int                `json:"passes"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Overhead   map[string]float64 `json:"tracing_overhead,omitempty"`
	Details    map[string]any     `json:"details,omitempty"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func report(cfg runConfig, wl *workload, res *outcome, chk *checker, stdout, stderr io.Writer) int {
	traced := cfg.tr != nil
	failed := min(len(chk.failures), chk.attempts)
	rec := runRecord{
		Workload: wl.name, Why: wl.why, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Traced: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Clients: res.clients, Conns: res.conns, Passes: res.passes,
		Attempted: chk.attempts, Failed: failed, Failures: chk.failures,
		EndToEnd: res.endToEnd, PerLayer: res.perLayer, Details: res.details,
	}
	for _, f := range chk.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	errRate := 0.0
	if chk.attempts > 0 {
		errRate = float64(failed) / float64(chk.attempts)
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  nproc %d  GOMAXPROCS %d  %s  load %d goroutines / %d connections  passes %d\n",
		wl.name, cfg.seed, rec.NumCPU, rec.GOMAXPROCS, rec.GoVersion, rec.Clients, rec.Conns, rec.Passes)
	fmt.Fprintf(stdout, "%-34s %14s %-6s %-7s %s\n", "metric", "value", "unit", "better", "workload")
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "%-34s %14.6g %-6s %-7s %s\n", m.Name, res.endToEnd[m.Name], m.Unit, m.Better, wl.name)
	}
	fmt.Fprintf(stdout, "%-34s %14.6g %-6s %-7s %s  (%d of %d operations)\n", "error_rate", errRate, "ratio", "lower", wl.name, failed, chk.attempts)

	line := resultLine{Correct: len(chk.failures) == 0 && chk.attempts > 0, Attempted: max(chk.attempts, 1), Failed: failed, Metrics: map[string]jsonMetric{}}
	defs := endToEnd
	if traced {
		defs = perLayer
		spans := cfg.tr.snapshot()
		fmt.Fprintln(stdout, "\nper-layer metrics (traced run):")
		for _, m := range perLayer {
			fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.Name, res.perLayer[m.Name], m.Unit)
		}
		fmt.Fprintln(stdout, "\nself time by span (span duration minus time covered by child spans):")
		printSelfTimes(stdout, selfTimes(spans))
		rec.Overhead = overhead(cfg, res, stdout)
		if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, cfg.seed)), spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	for _, m := range defs {
		v, ok := res.endToEnd[m.Name]
		if traced {
			v, ok = res.perLayer[m.Name]
		}
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s missing\n", m.Name)
			return 1
		}
		line.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	if err := writeJSON(filepath.Join(outDir, recordName(wl.name, cfg.seed, traced)), rec); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing report:", err)
		return 1
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func recordName(workload string, seed int64, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t)
}

// overhead prints traced minus untraced for every end-to-end metric, against
// the last untraced report of the same workload and seed.
func overhead(cfg runConfig, res *outcome, w io.Writer) map[string]float64 {
	var base runRecord
	data, err := os.ReadFile(filepath.Join(outDir, recordName(cfg.workload, cfg.seed, false)))
	if err == nil {
		err = json.Unmarshal(data, &base)
	}
	if err != nil {
		fmt.Fprintf(w, "\ntracing overhead: no untraced report for %s seed %d on record (run --trace 0 first)\n", cfg.workload, cfg.seed)
		return nil
	}
	fmt.Fprintln(w, "\ntracing overhead (traced − untraced, same workload and seed):")
	out := map[string]float64{}
	names := make([]string, 0, len(endToEnd))
	for _, m := range endToEnd {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		t, u := res.endToEnd[n], base.EndToEnd[n]
		out[n] = t - u
		rel := 0.0
		if u != 0 {
			rel = (t - u) / u * 100
		}
		fmt.Fprintf(w, "%-34s traced %12.6g  untraced %12.6g  delta %+12.6g (%+.1f%%)\n", n, t, u, t-u, rel)
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
