// Command bench runs the repository's benchmark suite with -benchmem and
// reduces the output to a machine-readable BENCH_<date>.json — the tracked
// performance trajectory of the project. Committing the JSON after perf work
// gives every future PR a baseline to be judged against, and the CI
// benchmark job uploads it as an artifact on every push.
//
// Usage:
//
//	go run ./cmd/bench                         # run all benchmarks, write BENCH_<today>.json
//	go run ./cmd/bench -bench 'StepParallel'   # subset
//	go run ./cmd/bench -mode localized         # one engine mode's suite only
//	go run ./cmd/bench -label after-kernel     # annotate the snapshot
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/bench -stdin -out out.json
//
// The -stdin mode only reduces (no nested `go test` invocation), which is
// what CI uses so the benchmarks run exactly once. The -mode filter maps an
// execution order / engine mode (synchronous, sequential, localized) to the
// -bench pattern of the benchmarks exercising it, so a mode-specific perf
// iteration re-runs only its own sweep instead of the whole suite.
//
// The compare subcommand
//
//	go run ./cmd/bench compare old.json new.json
//
// prints per-benchmark time and allocation deltas between two snapshots —
// the replacement for eyeballing artifact JSONs. With -max-regress it exits
// non-zero when a common benchmark slowed down by more than the given
// percentage (left off in CI: shared runners are too noisy to gate
// wall-times there; the deltas are printed into the job log instead).
// -max-alloc-regress gates allocs/op the same way — allocation counts are
// deterministic, so CI enforces that one as a blocking check. A failing
// compare names every row over either limit, in name order.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// Benchmark is one reduced benchmark result.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped, so
	// snapshots from machines with different core counts line up.
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics holds the row's b.ReportMetric values by unit (say,
	// first_round_ms), for benchmarks whose claim is not ns/op.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Procs is the GOMAXPROCS value the row ran under — the numeric suffix
	// go test appends to the name. It disambiguates the rows of a -cpus
	// sweep, where the same benchmark appears once per requested width.
	Procs int `json:"procs,omitempty"`
}

// Snapshot is the file schema of a BENCH_<date>.json.
type Snapshot struct {
	Date      string `json:"date"`
	Label     string `json:"label,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu,omitempty"`
	// GoMaxProcs is the machine parallelism of the run (runtime
	// GOMAXPROCS), recorded so wall-times from differently sized runners
	// are never compared as if they were peers.
	GoMaxProcs int         `json:"gomaxprocs,omitempty"`
	Benchtime  string      `json:"benchtime,omitempty"`
	Cpus       string      `json:"cpus,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches `go test -bench -benchmem` result rows, e.g.
//
//	BenchmarkStepParallel/n=250/workers=1-8   3   5887147 ns/op   224802 B/op   704 allocs/op
//
// capturing the name, the iteration count and the "value unit" pairs that
// follow; b.ReportMetric pairs sit between ns/op and B/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*\bns/op\b.*)$`)

// procSuffix strips the trailing -<GOMAXPROCS> go test appends to names.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var (
		bench     = flag.String("bench", ".", "benchmark pattern passed to go test -bench")
		mode      = flag.String("mode", "", "engine-mode sweep: one of "+modeNames()+" (translates to a -bench pattern, overriding -bench)")
		benchtime = flag.String("benchtime", "3x", "go test -benchtime value (Nx for fixed iterations)")
		pkg       = flag.String("pkg", ".", "package pattern to benchmark")
		short     = flag.Bool("short", true, "pass -short to go test (skips the slowest paths)")
		label     = flag.String("label", "", "free-form annotation stored in the snapshot")
		out       = flag.String("out", "", "output path (default BENCH_<date>.json)")
		stdin     = flag.Bool("stdin", false, "reduce go test output from stdin instead of running go test")
		cpus      = flag.String("cpus", "", "comma-separated GOMAXPROCS sweep passed to go test -cpu (e.g. 1,2,4); each benchmark runs once per width")
	)
	flag.Parse()
	if *mode != "" {
		pat, err := modePattern(*mode)
		if err != nil {
			fatal(err)
		}
		*bench = pat
	}

	var raw io.Reader
	if *stdin {
		raw = os.Stdin
	} else {
		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "-benchtime", *benchtime}
		if *cpus != "" {
			args = append(args, "-cpu", *cpus)
		}
		if *short {
			args = append(args, "-short")
		}
		args = append(args, *pkg)
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(&buf, os.Stderr) // stream progress while capturing
		if err := cmd.Run(); err != nil {
			// Fail before writing anything: a snapshot reduced from a
			// partially failed run must never look like a usable baseline.
			fatal(fmt.Errorf("go test: %w", err))
		}
		raw = &buf
	}

	snap, err := Reduce(raw)
	if err != nil {
		fatal(err)
	}
	snap.Date = time.Now().UTC().Format("2006-01-02")
	snap.Label = *label
	snap.GoVersion = runtime.Version()
	snap.GoMaxProcs = runtime.GOMAXPROCS(0)
	if !*stdin {
		snap.Benchtime = *benchtime
		snap.Cpus = *cpus
	}
	if len(snap.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark results found in input"))
	}

	path := *out
	if path == "" {
		path = "BENCH_" + snap.Date + ".json"
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(snap); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d results to %s\n", len(snap.Benchmarks), path)
}

// modeBench maps an engine execution order / mode to the -bench pattern of
// its benchmark suite, so a mode-specific sweep (`bench -mode localized`)
// re-runs only the cells that exercise that code path instead of the whole
// suite. The keys mirror the Mode/UpdateOrder stringers in internal/core.
var modeBench = map[string]string{
	// Synchronous Centralized rounds: the parallel lock-step engine plus the
	// few-movers scale surface.
	"synchronous": "StepParallel|ScaleStepFewMovers|Fig6Convergence|Table1MinNode2Coverage|Table2LensComparison",
	// Sequential (Gauss–Seidel) rounds: the level-scheduled parallel sweep,
	// including its mover-heavy layering surface and its hardest accounting
	// cell (Localized message accounting under waves).
	"sequential": "SeqStepFewMovers|SeqStepActive|SeqStepLevels|SeqLocalizedFewMovers",
	// Localized Algorithm 2: the message-faithful cached rounds, the
	// expanding-ring probe, and the incremental boundary detector.
	"localized": "ScaleLocalizedFewMovers|Fig2ExpandingRing|AblationLocalizedVsCentralized|SeqLocalizedFewMovers|BoundaryDetector",
}

// modePattern resolves a -mode name to its -bench pattern.
func modePattern(mode string) (string, error) {
	pat, ok := modeBench[mode]
	if !ok {
		return "", fmt.Errorf("unknown -mode %q (have %s)", mode, modeNames())
	}
	return pat, nil
}

func modeNames() string {
	names := make([]string, 0, len(modeBench))
	for k := range modeBench {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Reduce parses `go test -bench -benchmem` output into a Snapshot (without
// the date/label/version fields, which the caller stamps).
func Reduce(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: procSuffix.ReplaceAllString(m[1], "")}
		if s := procSuffix.FindString(m[1]); s != "" {
			b.Procs, _ = strconv.Atoi(s[1:])
		}
		var err error
		if b.Iterations, err = strconv.ParseInt(m[2], 10, 64); err != nil {
			return nil, fmt.Errorf("bench: parsing %q: %w", line, err)
		}
		pairs := strings.Fields(m[3])
		if len(pairs)%2 != 0 {
			return nil, fmt.Errorf("bench: parsing %q: unpaired value", line)
		}
		for i := 0; i < len(pairs); i += 2 {
			v, err := strconv.ParseFloat(pairs[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: parsing %q: %w", line, err)
			}
			switch unit := pairs[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsPerOp = int64(v)
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		snap.Benchmarks = append(snap.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

// runCompare implements `bench compare old.json new.json`: a per-benchmark
// delta table over the union of both snapshots, with a geometric-mean
// speedup over the common set.
func runCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	maxRegress := fs.Float64("max-regress", 0,
		"fail when any common benchmark's ns/op regressed by more than this percentage (0 disables)")
	maxAllocRegress := fs.Float64("max-alloc-regress", 0,
		"fail when any common benchmark's allocs/op regressed by more than this percentage (0 disables); allocation counts are deterministic, so this gate holds even on noisy shared runners")
	allocGrace := fs.Int64("alloc-grace", 0,
		"ignore alloc regressions whose absolute delta is at most this many allocs/op; near-zero-alloc benchmarks pick up a handful of runtime allocations (goroutine wakeups, stack growth) that read as huge percentages")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: bench compare [-max-regress pct] [-max-alloc-regress pct] [-alloc-grace n] old.json new.json")
	}
	oldSnap, err := readSnapshot(fs.Arg(0))
	if err != nil {
		return err
	}
	newSnap, err := readSnapshot(fs.Arg(1))
	if err != nil {
		return err
	}
	// A name appearing at more than one GOMAXPROCS width in either snapshot
	// is a -cpus sweep: qualify its key with the width so the rows do not
	// shadow each other. All other names stay bare, keeping snapshots from
	// differently sized machines comparable.
	multi := sweepNames(oldSnap)
	for name, v := range sweepNames(newSnap) {
		if v {
			multi[name] = true
		}
	}
	key := func(b Benchmark) string {
		if multi[b.Name] {
			return fmt.Sprintf("%s/procs=%d", b.Name, b.Procs)
		}
		return b.Name
	}
	oldBy := make(map[string]Benchmark, len(oldSnap.Benchmarks))
	for _, b := range oldSnap.Benchmarks {
		oldBy[key(b)] = b
	}
	newBy := make(map[string]Benchmark, len(newSnap.Benchmarks))
	for _, b := range newSnap.Benchmarks {
		newBy[key(b)] = b
	}

	fmt.Fprintf(w, "old: %s (%s, %s)\nnew: %s (%s, %s)\n\n",
		fs.Arg(0), oldSnap.Date, oldSnap.Label, fs.Arg(1), newSnap.Date, newSnap.Label)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tΔtime\told allocs\tnew allocs\tΔallocs\t")
	// failures collects one message per row over a gate, keyed by row name.
	type failure struct{ key, msg string }
	var failures []failure
	logSum, common := 0.0, 0
	// New-snapshot order first (the trajectory being judged), then
	// old-only rows.
	for _, nb := range newSnap.Benchmarks {
		k := key(nb)
		ob, ok := oldBy[k]
		if !ok {
			fmt.Fprintf(tw, "%s\t—\t%.0f\tnew\t—\t%d\tnew\t\n", strings.TrimPrefix(k, "Benchmark"), nb.NsPerOp, nb.AllocsPerOp)
			continue
		}
		dt := pctDelta(ob.NsPerOp, nb.NsPerOp)
		da := pctDelta(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp))
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%s\t%d\t%d\t%s\t\n",
			strings.TrimPrefix(k, "Benchmark"), ob.NsPerOp, nb.NsPerOp, fmtPct(dt),
			ob.AllocsPerOp, nb.AllocsPerOp, fmtPct(da))
		if ob.NsPerOp > 0 && nb.NsPerOp > 0 {
			logSum += math.Log(ob.NsPerOp / nb.NsPerOp)
			common++
		}
		if *maxRegress > 0 && dt > *maxRegress {
			failures = append(failures, failure{k, fmt.Sprintf("%s regressed %.1f%% (> %.1f%% allowed)", k, dt, *maxRegress)})
		}
		if *maxAllocRegress > 0 && da > *maxAllocRegress && nb.AllocsPerOp-ob.AllocsPerOp > *allocGrace {
			failures = append(failures, failure{k, fmt.Sprintf("%s allocs regressed %.1f%% (> %.1f%% allowed)", k, da, *maxAllocRegress)})
		}
	}
	for _, ob := range oldSnap.Benchmarks {
		if k := key(ob); newBy[k].Name == "" {
			fmt.Fprintf(tw, "%s\t%.0f\t—\tgone\t%d\t—\tgone\t\n", strings.TrimPrefix(k, "Benchmark"), ob.NsPerOp, ob.AllocsPerOp)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if common > 0 {
		fmt.Fprintf(w, "\ngeomean speedup over %d common benchmarks: %.2f×\n",
			common, math.Exp(logSum/float64(common)))
	}
	// Every failing row is named, in name order, one per line.
	sort.SliceStable(failures, func(i, j int) bool { return failures[i].key < failures[j].key })
	errs := make([]error, len(failures))
	for i, f := range failures {
		errs[i] = errors.New(f.msg)
	}
	return errors.Join(errs...)
}

// sweepNames reports which benchmark names appear at more than one
// GOMAXPROCS width within the snapshot — the signature of a -cpus sweep.
func sweepNames(s *Snapshot) map[string]bool {
	firstProcs := make(map[string]int, len(s.Benchmarks))
	multi := make(map[string]bool)
	for _, b := range s.Benchmarks {
		if p, ok := firstProcs[b.Name]; ok {
			if p != b.Procs {
				multi[b.Name] = true
			}
			continue
		}
		firstProcs[b.Name] = b.Procs
	}
	return multi
}

// pctDelta returns the relative change from old to new in percent (positive
// = regression for cost metrics). A zero old value yields 0: there is no
// meaningful baseline to regress from.
func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

func fmtPct(d float64) string {
	return fmt.Sprintf("%+.1f%%", d)
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
