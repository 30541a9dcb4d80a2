package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"laacad/internal/core"
	"laacad/internal/scenario"
)

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 15}, {25, 20}, {50, 35}, {75, 40}, {100, 50}, {40, 29}, {90, 46},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of empty = %v, want 0", got)
	}
	unsorted := []float64{5, 1, 4}
	percentile(unsorted, 50)
	if unsorted[0] != 5 {
		t.Errorf("percentile reordered its input: %v", unsorted)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 8, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8, 4) = %v, want 4", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {3, -1}, {math.NaN()}} {
		if got := geomean(bad); got != 0 {
			t.Errorf("geomean(%v) = %v, want 0", bad, got)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) with children [10,30) and [20,50) (overlapping: covered
	// 10..50 = 40) and [90,120) clipped to [90,100) = 10. The grandchild
	// [12,18) counts against its parent only.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "c", Start: 12, End: 18},
	}
	got := map[string]layerTime{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	want := map[string]layerTime{
		"root": {Name: "root", Count: 1, Total: 100, Self: 50},
		"a":    {Name: "a", Count: 2, Total: 50, Self: 44},
		"b":    {Name: "b", Count: 1, Total: 30, Self: 30},
		"c":    {Name: "c", Count: 1, Total: 6, Self: 6},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, "")
	if id != 0 || tr.end(id) != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded something")
	}
	tr.record("x", 0, "", time.Now(), time.Now())
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", 0, "k")
	inner := tr.begin("inner", outer, "k")
	time.Sleep(time.Millisecond)
	tr.end(inner)
	open := tr.begin("open", outer, "k")
	tr.end(outer)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot kept %d spans, want the 2 closed ones", len(spans))
	}
	if spans[1].Parent != outer || spans[1].dur() < time.Millisecond || spans[0].dur() < spans[1].dur() {
		t.Errorf("bad nesting: %+v", spans)
	}
	_ = open
}

// TestDigestAcrossWorkers checks the determinism contract the correctness
// gate relies on: one and two workers produce the same digest, in both
// execution orders and in Localized mode.
func TestDigestAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name       string
		sequential bool
	}{{"uniform", false}, {"uniform", true}, {"localized", false}} {
		sc, err := lookup(tc.name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if tc.sequential {
			sc.Config.Order = core.Sequential
		}
		var digests [2]string
		for w := 1; w <= 2; w++ {
			res, err := scenario.Run(context.Background(), sc, scenario.WithWorkers(w), scenario.WithMaxRounds(40))
			if err != nil {
				t.Fatal(err)
			}
			digests[w-1] = digest(res)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s (sequential=%v): workers 1 digest %s, workers 2 digest %s", tc.name, tc.sequential, digests[0], digests[1])
		}
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	sc, err := lookup("corner", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(context.Background(), sc, scenario.WithMaxRounds(5))
	if err != nil {
		t.Fatal(err)
	}
	base := digest(res)
	for name, mutate := range map[string]func(r *core.Result){
		"position": func(r *core.Result) { r.Positions[3].X = math.Nextafter(r.Positions[3].X, 2) },
		"radius":   func(r *core.Result) { r.Radii[0] = math.Nextafter(r.Radii[0], 2) },
		"trace":    func(r *core.Result) { r.Trace[2].Moved++ },
		"messages": func(r *core.Result) { r.Messages++ },
	} {
		c := *res
		c.Positions = append(c.Positions[:0:0], res.Positions...)
		c.Radii = append(c.Radii[:0:0], res.Radii...)
		c.Trace = append(c.Trace[:0:0], res.Trace...)
		mutate(&c)
		if digest(&c) == base {
			t.Errorf("digest ignores a change to the %s", name)
		}
	}
}

func TestSubSeedStreamsDiffer(t *testing.T) {
	if subSeed(1, "a") == subSeed(1, "b") || subSeed(1, "a") == subSeed(2, "a") {
		t.Error("sub-seeds collide")
	}
	if subSeed(7, "x") != subSeed(7, "x") || subSeed(7, "x") < 0 {
		t.Error("sub-seed not a deterministic non-negative value")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload lists
// in step with the ones this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
