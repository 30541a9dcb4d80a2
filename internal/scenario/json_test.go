package scenario

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"laacad/internal/core"
	"laacad/internal/snapshot"
)

// Every registered scenario must survive a JSON round-trip exactly: the
// daemon spools submitted scenarios to disk and replays them, so a lossy
// wire format would silently change what runs.
func TestScenarioJSONRoundTripRegistered(t *testing.T) {
	for _, sc := range All() {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("%s: marshal: %v", sc.Name, err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Errorf("%s: round-trip changed the scenario\n got: %+v\nwant: %+v", sc.Name, back, sc)
		}
		if err := back.Validate(); err != nil {
			t.Errorf("%s: decoded scenario fails validation: %v", sc.Name, err)
		}
	}
}

func TestScenarioJSONRejectsUnknownFields(t *testing.T) {
	_, err := ParseJSON([]byte(`{"region":"square","placement":"uniform","n":10,"nodes":10,"config":{"k":2,"alpha":0.5,"epsilon":1e-3,"max_rounds":5,"seed":1}}`))
	if err == nil || !strings.Contains(err.Error(), "nodes") {
		t.Errorf("unknown field should be rejected by name, got %v", err)
	}
}

func TestValidateListsValidNames(t *testing.T) {
	base := func() Scenario {
		sc, err := Lookup("uniform")
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}

	sc := base()
	sc.Region = "hexagon"
	err := sc.Validate()
	if err == nil || !strings.Contains(err.Error(), `"hexagon"`) || !strings.Contains(err.Error(), "square") {
		t.Errorf("unknown region error should name it and list valid regions, got: %v", err)
	}

	sc = base()
	sc.Placement = "spiral"
	err = sc.Validate()
	if err == nil || !strings.Contains(err.Error(), `"spiral"`) || !strings.Contains(err.Error(), "uniform") {
		t.Errorf("unknown placement error should name it and list valid placements, got: %v", err)
	}

	sc = base()
	sc.N = 0
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Errorf("non-positive n should be rejected, got: %v", err)
	}

	sc = base()
	sc.N = 1 // < K
	if err := sc.Validate(); err == nil {
		t.Error("n < k should be rejected")
	}

	sc = base()
	sc.Config.Mode = core.Mode(7)
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "mode") {
		t.Errorf("out-of-range mode should be rejected, got: %v", err)
	}

	sc = base()
	sc.Config.Mode = core.Localized
	sc.Config.Gamma = 0
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "gamma") {
		t.Errorf("localized without gamma should be rejected, got: %v", err)
	}

	sc = base()
	sc.Config.MaxRounds = 0
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "max_rounds") {
		t.Errorf("zero max_rounds should be rejected, got: %v", err)
	}
}

// The lossy-ring knobs (loss_rate, loss_retries, ring_cap) ride
// the wire inside the config block: a submitted scenario that models an
// unreliable link layer must reach the daemon with those knobs intact, and
// nonsense values must be rejected at submit time, not deep inside a run.
func TestScenarioJSONLossyRingKnobs(t *testing.T) {
	base := func() Scenario {
		sc, err := Lookup("uniform")
		if err != nil {
			t.Fatal(err)
		}
		sc.Config.Mode = core.Localized
		sc.Config.Gamma = 0.6
		sc.Config.LossRate = 0.15
		sc.Config.LossRetries = 4
		sc.Config.RingCap = 2.5
		return sc
	}

	sc := base()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"loss_rate":0.15`, `"loss_retries":4`, `"ring_cap":2.5`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("wire form missing %s:\n%s", field, data)
		}
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatalf("lossy scenario failed to parse: %v", err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("round-trip changed the lossy scenario\n got: %+v\nwant: %+v", back, sc)
	}

	sc = base()
	sc.Config.LossRate = 1.0 // certain loss can never terminate
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "loss_rate") {
		t.Errorf("loss_rate 1.0 should be rejected, got: %v", err)
	}

	sc = base()
	sc.Config.LossRate = -0.1
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "loss_rate") {
		t.Errorf("negative loss_rate should be rejected, got: %v", err)
	}

	sc = base()
	sc.Config.LossRetries = -1
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "loss_retries") {
		t.Errorf("negative loss_retries should be rejected, got: %v", err)
	}

	sc = base()
	sc.Config.RingCap = -1
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "ring_cap") {
		t.Errorf("negative ring_cap should be rejected, got: %v", err)
	}

	sc = base()
	sc.Config.Mode = core.Centralized
	sc.Config.Gamma = 0
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "localized") {
		t.Errorf("loss_rate outside localized mode should be rejected, got: %v", err)
	}
}

// A decoded lossy scenario must also RUN identically — the loss draws come
// from the seeded per-node streams, so the wire format must not perturb them.
func TestDecodedLossyScenarioRunsIdentically(t *testing.T) {
	sc, err := Lookup("uniform")
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.WithSeed(7)
	sc.N = 30
	sc.Config.MaxRounds = 6
	sc.Config.Mode = core.Localized
	sc.Config.Gamma = 0.6
	sc.Config.LossRate = 0.2
	sc.Config.LossRetries = 3

	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Positions, got.Positions) || !reflect.DeepEqual(want.Trace, got.Trace) {
		t.Error("decoded lossy scenario produced a different run")
	}
}

// A decoded scenario must RUN identically to its in-process original, not
// just compare equal: the wire format feeds the daemon, whose results are
// asserted bit-identical against solo runs.
func TestDecodedScenarioRunsIdentically(t *testing.T) {
	sc, err := Lookup("uniform")
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.WithSeed(42)
	sc.N = 40
	sc.Config.MaxRounds = 8

	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}

	want, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Positions, got.Positions) ||
		!reflect.DeepEqual(want.Trace, got.Trace) ||
		!reflect.DeepEqual(want.Radii, got.Radii) {
		t.Error("decoded scenario produced a different run")
	}
}

// engineInvalid lists submissions whose config the engine rejects, each with
// the wire field the rejection must name. Every one was once accepted at
// submit time and failed only when the job ran (or, for a negative
// stable_activations, ran without any node ever settling).
var engineInvalid = []struct{ field, json string }{
	{"arc_samples", `{"region":"square","placement":"uniform","n":20,"config":{"k":2,"alpha":0.5,"epsilon":0.001,"max_rounds":5,"seed":1,"arc_samples":3}}`},
	{"arc_samples", `{"region":"square","placement":"uniform","n":20,"config":{"k":2,"alpha":0.5,"epsilon":0.001,"max_rounds":5,"seed":1,"arc_samples":-1}}`},
	{"jitter", `{"region":"square","placement":"uniform","n":20,"async":true,"config":{"k":2,"alpha":0.5,"epsilon":0.001,"seed":1,"tau":1,"max_time":10,"jitter":1.5}}`},
	{"jitter", `{"region":"square","placement":"uniform","n":20,"async":true,"config":{"k":2,"alpha":0.5,"epsilon":0.001,"seed":1,"tau":1,"max_time":10,"jitter":-0.5}}`},
	{"stable_activations", `{"region":"square","placement":"uniform","n":20,"async":true,"config":{"k":2,"alpha":0.5,"epsilon":0.001,"seed":1,"tau":1,"max_time":10,"stable_activations":-2}}`},
}

// inactiveRegime lists submissions that set a config field of the regime
// the scenario does not run, each with the wire field the rejection must
// name. Each once parsed without error and the field was dropped.
var inactiveRegime = []struct{ field, json string }{
	{"max_rounds", `{"region":"square","placement":"uniform","n":20,"async":true,"config":{"k":2,"alpha":0.5,"epsilon":0.001,"seed":1,"tau":1,"max_time":10,"mode":1,"gamma":0.2,"loss_rate":0.5,"max_rounds":3}}`},
	{"tau", `{"region":"square","placement":"uniform","n":20,"config":{"k":2,"alpha":0.5,"epsilon":0.001,"max_rounds":5,"seed":1,"tau":5,"jitter":0.9}}`},
	{"workers", `{"region":"square","placement":"uniform","n":20,"async":true,"config":{"k":2,"alpha":0.5,"epsilon":0.001,"seed":1,"tau":1,"max_time":10,"workers":0}}`},
	{"arc_samples", `{"region":"square","placement":"uniform","n":20,"async":true,"config":{"k":2,"alpha":0.5,"epsilon":0.001,"seed":1,"tau":1,"max_time":10,"Arc_Samples":64}}`},
	{"stable_activations", `{"region":"square","placement":"uniform","n":20,"config":{"k":2,"alpha":0.5,"epsilon":0.001,"max_rounds":5,"seed":1,"stable_activations":3}}`},
}

// A config field of the inactive regime is rejected by its wire name, even
// at its zero value and in any letter case.
func TestParseJSONRejectsInactiveRegimeFields(t *testing.T) {
	for _, c := range inactiveRegime {
		if _, err := ParseJSON([]byte(c.json)); err == nil || !strings.Contains(err.Error(), `"`+c.field+`"`) {
			t.Errorf("%s: ParseJSON err = %v, want a rejection naming %q", c.json, err, c.field)
		}
	}
}

// The hand-kept lists of regime-only config fields must match what the two
// regimes' converters actually carry: every snapshot.ConfigState field is
// carried by at least one regime, and a field is in engineOnlyFields or
// asyncOnlyFields exactly when only that regime carries it. A new config
// field therefore fails here until both its converters and the lists know it.
func TestInactiveRegimeFieldListsMatchConverters(t *testing.T) {
	var full snapshot.ConfigState
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(0.5)
		default:
			t.Fatalf("ConfigState.%s: unhandled kind %v", v.Type().Field(i).Name, f.Kind())
		}
	}
	carried := func(st snapshot.ConfigState) map[string]bool {
		out := map[string]bool{}
		v := reflect.ValueOf(st)
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				out[wireName(v.Type().Field(i))] = true
			}
		}
		return out
	}
	engine := carried(core.ConfigToState(core.ConfigFromState(full)))
	async := carried(asyncConfigToState(asyncConfigFromState(full)))
	var engineOnly, asyncOnly []string
	for i := 0; i < v.NumField(); i++ {
		name := wireName(v.Type().Field(i))
		switch {
		case engine[name] && !async[name]:
			engineOnly = append(engineOnly, name)
		case async[name] && !engine[name]:
			asyncOnly = append(asyncOnly, name)
		case !engine[name]:
			t.Errorf("config field %q is carried by neither regime", name)
		}
	}
	if !sameSet(engineOnly, engineOnlyFields) {
		t.Errorf("engineOnlyFields = %v, want %v", engineOnlyFields, engineOnly)
	}
	if !sameSet(asyncOnly, asyncOnlyFields) {
		t.Errorf("asyncOnlyFields = %v, want %v", asyncOnlyFields, asyncOnly)
	}
}

// wireName is a struct field's JSON name.
func wireName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// A scenario that passes submit-time validation must be one the engine
// accepts: the scenario layer defers every config check to the engine's own
// validator, so none of these can parse.
func TestParseJSONRejectsEngineInvalidConfig(t *testing.T) {
	for _, c := range engineInvalid {
		if _, err := ParseJSON([]byte(c.json)); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: ParseJSON err = %v, want a rejection naming %q", c.json, err, c.field)
		}
	}
}

// FuzzScenarioSubmit drives the submit→construct path with arbitrary JSON:
// neither step may panic, and whatever ParseJSON accepts, NewRunner must
// build. Decoded deployments above 2000 nodes are skipped to keep
// construction small.
func FuzzScenarioSubmit(f *testing.F) {
	for _, c := range engineInvalid {
		f.Add([]byte(c.json))
	}
	for _, sc := range All() {
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, c := range inactiveRegime {
		f.Add([]byte(c.json))
	}
	// Corner seed 18, Sequential: its run drives a k=2 pair closer than
	// geom.Eps apart (see TestCornerNearCoincidentPairsRun).
	f.Add([]byte(`{"region":"square","placement":"corner","n":100,"config":{"k":2,"alpha":0.5,"epsilon":0.0005,"max_rounds":500,"order":1,"gamma":0.15,"arc_samples":64,"seed":18}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseJSON(data)
		if err != nil {
			return
		}
		if sc.N > 2000 {
			t.Skip()
		}
		if _, err := NewRunner(sc); err != nil {
			t.Fatalf("ParseJSON accepted a scenario NewRunner rejects: %v\n%s", err, data)
		}
	})
}
