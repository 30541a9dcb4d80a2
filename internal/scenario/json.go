package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"laacad/internal/core"
	"laacad/internal/sim"
	"laacad/internal/snapshot"
)

// Scenario wire format.
//
// A Scenario round-trips through JSON so deployments can be submitted to a
// daemon, spooled to disk, and replayed elsewhere: names resolve through the
// registries on the receiving side, and the engine configuration reuses the
// snapshot.ConfigState schema already proven to round-trip bit-exactly for
// checkpoints. The wire form records the configuration of the active regime
// (engine config, or the event-driven simulator's when async is set); a
// decoded Scenario is therefore equal to the encoded one for every scenario
// whose inactive config is the zero value — which all registered scenarios
// are.

// scenarioJSON is the wire shape; Scenario's JSON methods go through it so
// the wire keeps one flat config block whichever regime is active.
type scenarioJSON struct {
	Name        string               `json:"name,omitempty"`
	Description string               `json:"description,omitempty"`
	Region      string               `json:"region"`
	Placement   string               `json:"placement"`
	N           int                  `json:"n"`
	Async       bool                 `json:"async,omitempty"`
	Config      snapshot.ConfigState `json:"config"`
}

// MarshalJSON encodes the scenario in its wire form.
func (s Scenario) MarshalJSON() ([]byte, error) {
	w := scenarioJSON{
		Name:        s.Name,
		Description: s.Description,
		Region:      s.Region,
		Placement:   s.Placement,
		N:           s.N,
		Async:       s.Async,
	}
	if s.Async {
		w.Config = asyncConfigToState(s.AsyncConfig)
	} else {
		w.Config = core.ConfigToState(s.Config)
	}
	return json.Marshal(w)
}

// engineOnlyFields and asyncOnlyFields are the wire names of the config
// fields only the round engine, respectively only the event-driven
// simulator, reads (core.ConfigToState and asyncConfigToState carry the
// same split; TestInactiveRegimeFieldListsMatchConverters holds the two
// together).
var (
	engineOnlyFields = []string{"max_rounds", "mode", "order", "gamma", "loss_rate",
		"loss_retries", "arc_samples", "ring_cap", "workers"}
	asyncOnlyFields = []string{"tau", "jitter", "speed", "max_time", "stable_activations"}
)

// UnmarshalJSON decodes the wire form, rejecting unknown fields — and config
// fields of the regime the scenario does not run — so a typo or a misplaced
// knob in a submitted job surfaces as an error instead of being silently
// ignored. It performs no registry resolution; call Validate before running
// the decoded scenario.
func (s *Scenario) UnmarshalJSON(data []byte) error {
	var w scenarioJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("scenario: decoding: %w", err)
	}
	// Field presence, not value: an explicit zero is still a knob the
	// submitter believes applies. Keys match case-insensitively, as the
	// decoder itself matches them.
	var raw struct {
		Config map[string]json.RawMessage `json:"config"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("scenario: decoding: %w", err)
	}
	foreign, regime := asyncOnlyFields, "an engine"
	if w.Async {
		foreign, regime = engineOnlyFields, "an async"
	}
	for _, f := range foreign {
		for key := range raw.Config {
			if strings.EqualFold(key, f) {
				return fmt.Errorf("scenario: config field %q does not apply to %s scenario", f, regime)
			}
		}
	}
	*s = Scenario{
		Name:        w.Name,
		Description: w.Description,
		Region:      w.Region,
		Placement:   w.Placement,
		N:           w.N,
		Async:       w.Async,
	}
	if w.Async {
		s.AsyncConfig = asyncConfigFromState(w.Config)
	} else {
		s.Config = core.ConfigFromState(w.Config)
	}
	return nil
}

// ParseJSON decodes and validates a scenario — the submit-time entry point:
// a scenario that parses is guaranteed to resolve against the registries and
// to carry parameters the engine will accept, so a bad submission fails here
// with a clear error instead of deep inside Run.
func ParseJSON(data []byte) (Scenario, error) {
	var s Scenario
	if err := s.UnmarshalJSON(data); err != nil {
		return Scenario{}, err
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Validate checks that the scenario resolves against the registries and that
// its parameters can build a runner. Unknown region/placement names are
// rejected with the list of valid names and non-positive N with an error
// naming n; the active regime's configuration is then checked by its
// engine's own validator (core.Config.Validate or sim.Config.Validate), so
// a scenario that validates here is one the engine accepts.
func (s Scenario) Validate() error {
	mu.RLock()
	_, regionOK := regions[s.Region]
	_, placementOK := placements[s.Placement]
	mu.RUnlock()
	if !regionOK {
		return fmt.Errorf("scenario: unknown region %q (valid regions: %s)",
			s.Region, strings.Join(RegionNames(), ", "))
	}
	if !placementOK {
		return fmt.Errorf("scenario: unknown placement %q (valid placements: %s)",
			s.Placement, strings.Join(PlacementNames(), ", "))
	}
	if s.N < 1 {
		return fmt.Errorf("scenario: n must be positive, got %d", s.N)
	}
	if s.Async {
		return s.AsyncConfig.Validate(s.N)
	}
	return s.Config.Validate(s.N)
}

// asyncConfigToState maps the event-driven simulator's configuration onto
// the shared ConfigState schema (the async fields the checkpoint format
// already carries).
func asyncConfigToState(c sim.Config) snapshot.ConfigState {
	return snapshot.ConfigState{
		K:                 c.K,
		Alpha:             c.Alpha,
		Epsilon:           c.Epsilon,
		Seed:              c.Seed,
		Tau:               c.Tau,
		Jitter:            c.Jitter,
		Speed:             c.Speed,
		MaxTime:           c.MaxTime,
		StableActivations: c.StableActivations,
	}
}

func asyncConfigFromState(s snapshot.ConfigState) sim.Config {
	return sim.Config{
		K:                 s.K,
		Alpha:             s.Alpha,
		Epsilon:           s.Epsilon,
		Seed:              s.Seed,
		Tau:               s.Tau,
		Jitter:            s.Jitter,
		Speed:             s.Speed,
		MaxTime:           s.MaxTime,
		StableActivations: s.StableActivations,
	}
}
