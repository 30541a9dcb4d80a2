package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: laacad
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig5Deployment 	       3	 103716472 ns/op	 5360136 B/op	   23017 allocs/op
BenchmarkStepParallel/n=250/workers=1-8         	       3	   4839431 ns/op	  224802 B/op	     704 allocs/op
BenchmarkWelzl-8                                	       3	      3048 ns/op	    1024 B/op	       1 allocs/op
BenchmarkNoMem 	     100	      50.5 ns/op
PASS
ok  	laacad	0.528s
`

func TestReduce(t *testing.T) {
	snap, err := Reduce(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GOOS != "linux" || snap.GOARCH != "amd64" {
		t.Errorf("platform = %s/%s", snap.GOOS, snap.GOARCH)
	}
	if !strings.Contains(snap.CPU, "Xeon") {
		t.Errorf("cpu = %q", snap.CPU)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("got %d benchmarks, want 4", len(snap.Benchmarks))
	}
	fig5 := snap.Benchmarks[0]
	if fig5.Name != "BenchmarkFig5Deployment" || fig5.Iterations != 3 ||
		fig5.NsPerOp != 103716472 || fig5.BytesPerOp != 5360136 || fig5.AllocsPerOp != 23017 {
		t.Errorf("fig5 parsed as %+v", fig5)
	}
	// The -GOMAXPROCS suffix is stripped so snapshots from different
	// machines line up, but sub-benchmark path components survive and the
	// width itself is preserved in Procs.
	if got := snap.Benchmarks[1].Name; got != "BenchmarkStepParallel/n=250/workers=1" {
		t.Errorf("sub-benchmark name = %q", got)
	}
	if got := snap.Benchmarks[1].Procs; got != 8 {
		t.Errorf("procs = %d, want 8", got)
	}
	if got := snap.Benchmarks[2].Name; got != "BenchmarkWelzl" {
		t.Errorf("suffix not stripped: %q", got)
	}
	if got := snap.Benchmarks[0].Procs; got != 0 {
		t.Errorf("suffix-less row has procs = %d, want 0", got)
	}
	// Rows without -benchmem columns still parse.
	if b := snap.Benchmarks[3]; b.NsPerOp != 50.5 || b.BytesPerOp != 0 || b.AllocsPerOp != 0 {
		t.Errorf("no-mem row parsed as %+v", b)
	}
}

// writeSnapshot is a test helper materializing a snapshot JSON on disk.
func writeSnapshot(t *testing.T, name string, snap Snapshot) string {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareReportsDeltas(t *testing.T) {
	oldPath := writeSnapshot(t, "old.json", Snapshot{
		Date: "2026-07-01", Label: "before",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA/n=1000", NsPerOp: 1000, AllocsPerOp: 100},
			{Name: "BenchmarkGone", NsPerOp: 5, AllocsPerOp: 1},
		},
	})
	newPath := writeSnapshot(t, "new.json", Snapshot{
		Date: "2026-07-26", Label: "after",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA/n=1000", NsPerOp: 250, AllocsPerOp: 10},
			{Name: "BenchmarkFresh", NsPerOp: 7, AllocsPerOp: 2},
		},
	})
	var out strings.Builder
	if err := runCompare([]string{oldPath, newPath}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"A/n=1000", "-75.0%", "-90.0%", "new", "gone", "geomean speedup over 1 common benchmarks: 4.00×"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output missing %q:\n%s", want, text)
		}
	}
}

func TestCompareMaxRegressGate(t *testing.T) {
	oldPath := writeSnapshot(t, "old.json", Snapshot{
		Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 100}},
	})
	newPath := writeSnapshot(t, "new.json", Snapshot{
		Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 180}},
	})
	var out strings.Builder
	if err := runCompare([]string{oldPath, newPath}, &out); err != nil {
		t.Errorf("without -max-regress a regression must only be reported, got %v", err)
	}
	if err := runCompare([]string{"-max-regress", "50", oldPath, newPath}, &out); err == nil {
		t.Error("an 80%% regression must trip -max-regress 50")
	}
	if err := runCompare([]string{"-max-regress", "90", oldPath, newPath}, &out); err != nil {
		t.Errorf("an 80%% regression must pass -max-regress 90, got %v", err)
	}
}

func TestCompareMaxAllocRegressGate(t *testing.T) {
	oldPath := writeSnapshot(t, "old.json", Snapshot{
		Benchmarks: []Benchmark{
			{Name: "BenchmarkTiny", NsPerOp: 100, AllocsPerOp: 5},
			{Name: "BenchmarkHot", NsPerOp: 100, AllocsPerOp: 1000},
		},
	})
	newPath := writeSnapshot(t, "new.json", Snapshot{
		Benchmarks: []Benchmark{
			{Name: "BenchmarkTiny", NsPerOp: 100, AllocsPerOp: 14}, // +180%, +9 allocs
			{Name: "BenchmarkHot", NsPerOp: 100, AllocsPerOp: 1000},
		},
	})
	var out strings.Builder
	if err := runCompare([]string{"-max-alloc-regress", "10", oldPath, newPath}, &out); err == nil {
		t.Error("a 180%% alloc regression must trip -max-alloc-regress 10")
	}
	// The grace floor absorbs small absolute deltas on near-zero-alloc rows.
	if err := runCompare([]string{"-max-alloc-regress", "10", "-alloc-grace", "64", oldPath, newPath}, &out); err != nil {
		t.Errorf("a 9-alloc delta must pass -alloc-grace 64, got %v", err)
	}
	// A hot-path regression clears any reasonable grace and still fails.
	hotPath := writeSnapshot(t, "hot.json", Snapshot{
		Benchmarks: []Benchmark{
			{Name: "BenchmarkTiny", NsPerOp: 100, AllocsPerOp: 5},
			{Name: "BenchmarkHot", NsPerOp: 100, AllocsPerOp: 2000},
		},
	})
	if err := runCompare([]string{"-max-alloc-regress", "10", "-alloc-grace", "64", oldPath, hotPath}, &out); err == nil {
		t.Error("a 1000-alloc regression must trip the gate despite -alloc-grace 64")
	}
}

// A -cpus sweep emits the same benchmark once per width; every row must
// survive reduction (same Name, distinct Procs).
func TestReduceCpusSweep(t *testing.T) {
	const sweep = `BenchmarkSeqLocalizedFewMovers/n=1000     	       3	 8000000 ns/op	  100 B/op	  10 allocs/op
BenchmarkSeqLocalizedFewMovers/n=1000-2   	       3	 5000000 ns/op	  100 B/op	  10 allocs/op
BenchmarkSeqLocalizedFewMovers/n=1000-4   	       3	 3000000 ns/op	  100 B/op	  10 allocs/op
`
	snap, err := Reduce(strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("got %d rows, want 3", len(snap.Benchmarks))
	}
	wantProcs := []int{0, 2, 4} // go test omits the suffix at width 1
	for i, b := range snap.Benchmarks {
		if b.Name != "BenchmarkSeqLocalizedFewMovers/n=1000" {
			t.Errorf("row %d name = %q", i, b.Name)
		}
		if b.Procs != wantProcs[i] {
			t.Errorf("row %d procs = %d, want %d", i, b.Procs, wantProcs[i])
		}
	}
}

// b.ReportMetric values sit between ns/op and B/op; they land in Metrics and
// must not cost the row its memory columns.
func TestReduceReportedMetrics(t *testing.T) {
	const row = "BenchmarkJobFirstRoundEvent-2   	      10	  13500000 ns/op	         1.500 first_round_ms	  2048 B/op	  30 allocs/op\n"
	snap, err := Reduce(strings.NewReader(row))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 1 {
		t.Fatalf("got %d rows, want 1", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[0]
	if b.NsPerOp != 13500000 || b.BytesPerOp != 2048 || b.AllocsPerOp != 30 || b.Procs != 2 {
		t.Errorf("row parsed as %+v", b)
	}
	if got := b.Metrics["first_round_ms"]; got != 1.5 || len(b.Metrics) != 1 {
		t.Errorf("metrics = %v, want first_round_ms 1.5", b.Metrics)
	}
}

// Sweep rows must not shadow each other in compare: when a name appears at
// several widths, the keys are procs-qualified, so all rows participate.
func TestCompareCpusSweepKeys(t *testing.T) {
	oldPath := writeSnapshot(t, "old.json", Snapshot{
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 1000, Procs: 1},
			{Name: "BenchmarkA", NsPerOp: 600, Procs: 4},
		},
	})
	newPath := writeSnapshot(t, "new.json", Snapshot{
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 500, Procs: 1},
			{Name: "BenchmarkA", NsPerOp: 200, Procs: 4},
		},
	})
	var out strings.Builder
	if err := runCompare([]string{oldPath, newPath}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"A/procs=1", "A/procs=4", "-50.0%", "geomean speedup over 2 common benchmarks"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output missing %q:\n%s", want, text)
		}
	}
}

func TestCompareBadArgs(t *testing.T) {
	var out strings.Builder
	if err := runCompare([]string{"only-one.json"}, &out); err == nil {
		t.Error("compare with one file must error")
	}
	if err := runCompare([]string{"nope1.json", "nope2.json"}, &out); err == nil {
		t.Error("compare with missing files must error")
	}
}

func TestReduceEmpty(t *testing.T) {
	snap, err := Reduce(strings.NewReader("PASS\nok x 0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 0 {
		t.Errorf("expected no benchmarks, got %d", len(snap.Benchmarks))
	}
}

func TestModePattern(t *testing.T) {
	for mode, wantPiece := range map[string]string{
		"sequential":  "SeqStepFewMovers",
		"localized":   "ScaleLocalizedFewMovers",
		"synchronous": "StepParallel",
	} {
		pat, err := modePattern(mode)
		if err != nil {
			t.Fatalf("modePattern(%q): %v", mode, err)
		}
		if !strings.Contains(pat, wantPiece) {
			t.Errorf("modePattern(%q) = %q, missing %q", mode, pat, wantPiece)
		}
	}
	if _, err := modePattern("bogus"); err == nil {
		t.Error("unknown mode must error")
	} else if !strings.Contains(err.Error(), "localized") {
		t.Errorf("error should list valid modes, got %v", err)
	}
}

// Every benchmark name a -mode pattern routes to must exist in the suite, so
// the filter cannot silently rot as benchmarks are renamed.
func TestModePatternsMatchSuite(t *testing.T) {
	data, err := os.ReadFile("../../bench_test.go")
	if err != nil {
		t.Fatal(err)
	}
	suite := string(data)
	for mode, pat := range modeBench {
		for _, piece := range strings.Split(pat, "|") {
			if !strings.Contains(suite, "func Benchmark"+piece) {
				t.Errorf("mode %q routes to %q, which is not a benchmark in bench_test.go", mode, piece)
			}
		}
	}
}

// Every row over a gate is named in the error, in name order — not only the
// worst one.
func TestCompareNamesEveryFailingRow(t *testing.T) {
	oldPath := writeSnapshot(t, "old.json", Snapshot{
		Benchmarks: []Benchmark{
			{Name: "BenchmarkZeta", NsPerOp: 100, AllocsPerOp: 100},
			{Name: "BenchmarkAlpha", NsPerOp: 100, AllocsPerOp: 100},
			{Name: "BenchmarkFine", NsPerOp: 100, AllocsPerOp: 100},
		},
	})
	newPath := writeSnapshot(t, "new.json", Snapshot{
		Benchmarks: []Benchmark{
			{Name: "BenchmarkZeta", NsPerOp: 100, AllocsPerOp: 400},  // +300%, the worst
			{Name: "BenchmarkAlpha", NsPerOp: 100, AllocsPerOp: 200}, // +100%
			{Name: "BenchmarkFine", NsPerOp: 100, AllocsPerOp: 105},  // +5%, under the limit
		},
	})
	var out strings.Builder
	err := runCompare([]string{"-max-alloc-regress", "10", oldPath, newPath}, &out)
	if err == nil {
		t.Fatal("two alloc regressions must trip -max-alloc-regress 10")
	}
	msg := err.Error()
	alpha, zeta := strings.Index(msg, "BenchmarkAlpha"), strings.Index(msg, "BenchmarkZeta")
	if alpha < 0 || zeta < 0 {
		t.Fatalf("the error must name both failing rows:\n%s", msg)
	}
	if alpha > zeta {
		t.Errorf("failing rows must be listed in name order:\n%s", msg)
	}
	if strings.Contains(msg, "BenchmarkFine") {
		t.Errorf("a row under the limit must not be named:\n%s", msg)
	}
}
