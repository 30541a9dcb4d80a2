package experiment

import (
	"strings"
	"testing"
)

func quickCfg() RunConfig { return RunConfig{Quick: true, Seed: 1, Workers: -1} }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-alpha", "ablation-arcsamples", "ablation-async", "ablation-grid",
		"ablation-kvor", "ablation-localized",
		"extra-connectivity", "extra-maxcov",
		"fig1", "fig2", "fig5", "fig6", "fig7", "fig8",
		"replication",
		"table1", "table2",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Error("unknown experiment should error")
	}
}

// slowRunners are the runners dominated by full deployments; they are
// skipped under -short so the package has a fast mode (the remaining
// runners still cover every code path at small sizes).
var slowRunners = map[string]bool{
	"fig5": true, "fig7": true, "fig8": true,
	"replication": true, "table1": true, "table2": true,
}

// Each runner executes in quick mode, produces text, CSV and passing checks.
func TestRunnersQuick(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && slowRunners[name] {
				t.Skipf("%s runs full deployments; skipped in -short mode", name)
			}
			out, err := Run(name, quickCfg())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if out.Name != name {
				t.Errorf("output name %q", out.Name)
			}
			if strings.TrimSpace(out.Text) == "" {
				t.Error("empty text rendering")
			}
			if len(out.CSV) == 0 {
				t.Error("no CSV emitted")
			}
			for f, content := range out.CSV {
				if !strings.Contains(content, ",") {
					t.Errorf("CSV %s looks empty: %q", f, content)
				}
			}
			if len(out.Checks) == 0 {
				t.Error("no shape checks evaluated")
			}
			if failed := out.Failed(); len(failed) > 0 {
				t.Errorf("failed checks:\n  %s", strings.Join(failed, "\n  "))
			}
			if !strings.Contains(out.Summary(), "PASS") {
				t.Error("summary missing check lines")
			}
		})
	}
}

func TestOutputFailedAndSummary(t *testing.T) {
	o := &Output{
		Name:  "x",
		Title: "t",
		Text:  "body\n",
		Checks: []Check{
			{Name: "good", OK: true, Detail: "d1"},
			{Name: "bad", OK: false, Detail: "d2"},
		},
	}
	failed := o.Failed()
	if len(failed) != 1 || !strings.Contains(failed[0], "bad") {
		t.Errorf("Failed() = %v", failed)
	}
	s := o.Summary()
	if !strings.Contains(s, "[PASS] good") || !strings.Contains(s, "[FAIL] bad") {
		t.Errorf("summary:\n%s", s)
	}
}
