package snapshot

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"laacad/internal/geom"
)

// StateVersion identifies the resumable-checkpoint schema. It is independent
// of the result-archive schema (Version/Snapshot): a Snapshot records what a
// finished deployment produced, a State records everything needed to continue
// an interrupted one.
const StateVersion = 1

// Kind values for State.Kind.
const (
	// KindEngine marks a checkpoint of the synchronous round engine
	// (core.Engine). Engine checkpoints resume bit-identically: the engine
	// draws all randomness from streams derived from (Seed, round, node), so
	// positions + round counter + config are the complete state.
	KindEngine = "engine"
	// KindAsync marks a checkpoint of the event-driven simulator
	// (sim.Deployment). Async checkpoints are positional: the event queue
	// and the jitter RNG cannot be serialized, so a resumed run continues
	// from the saved positions with fresh clocks — same fixed points, not a
	// bit-identical event sequence.
	KindAsync = "async"
)

// ConfigState is the serialized form of an engine configuration. It covers
// every field of core.Config plus the event-driven simulator's fields.
// Enum-typed fields (Mode, Order) are stored as their integer values.
type ConfigState struct {
	K           int     `json:"k"`
	Alpha       float64 `json:"alpha"`
	Epsilon     float64 `json:"epsilon"`
	MaxRounds   int     `json:"max_rounds,omitempty"`
	Mode        int     `json:"mode,omitempty"`
	Order       int     `json:"order,omitempty"`
	Gamma       float64 `json:"gamma,omitempty"`
	LossRate    float64 `json:"loss_rate,omitempty"`
	LossRetries int     `json:"loss_retries,omitempty"`
	ArcSamples  int     `json:"arc_samples,omitempty"`
	RingCap     float64 `json:"ring_cap,omitempty"`
	Seed        int64   `json:"seed"`
	Workers     int     `json:"workers,omitempty"`

	// Event-driven simulator fields (Kind == KindAsync).
	Tau               float64 `json:"tau,omitempty"`
	Jitter            float64 `json:"jitter,omitempty"`
	Speed             float64 `json:"speed,omitempty"`
	MaxTime           float64 `json:"max_time,omitempty"`
	StableActivations int     `json:"stable_activations,omitempty"`
}

// RoundState is one archived trace entry (mirrors core.RoundStats without
// importing core, which would cycle).
type RoundState struct {
	Round           int     `json:"round"`
	MaxCircumradius float64 `json:"max_cr"`
	MinCircumradius float64 `json:"min_cr"`
	MaxRhat         float64 `json:"max_rhat"`
	MaxMove         float64 `json:"max_move"`
	Moved           int     `json:"moved"`
	Messages        int64   `json:"messages,omitempty"`
}

// State is a resumable deployment checkpoint: enough to reconstruct a
// Runner mid-run. For the synchronous engine the resume is bit-identical
// (see KindEngine); for the async simulator it is positional (KindAsync).
type State struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// Scenario is the registered scenario name the run was launched from,
	// if any — informational, and a fallback for region resolution.
	Scenario string `json:"scenario,omitempty"`
	// Region is the registered region name the run deploys over. Resuming
	// through the scenario registry requires it; resuming through
	// core.Resume / sim.Resume with an explicit *region.Region does not.
	Region string `json:"region,omitempty"`

	// Round is the number of completed rounds (engine) or epochs (async).
	Round     int  `json:"round"`
	Converged bool `json:"converged"`
	// X and Y are the node positions at the checkpoint, as parallel arrays.
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
	// Messages is the cumulative link-level message count up to the
	// checkpoint (Localized mode).
	Messages int64 `json:"messages,omitempty"`

	// Async progress counters (Kind == KindAsync).
	Time        float64 `json:"time,omitempty"`
	Activations int64   `json:"activations,omitempty"`
	Travel      float64 `json:"travel,omitempty"`

	Trace  []RoundState `json:"trace,omitempty"`
	Config ConfigState  `json:"config"`
}

// NewState builds a checkpoint skeleton of the given kind with the node
// positions filled in; callers populate progress counters and config.
func NewState(kind string, positions []geom.Point) *State {
	s := &State{
		Version: StateVersion,
		Kind:    kind,
		X:       make([]float64, len(positions)),
		Y:       make([]float64, len(positions)),
	}
	for i, p := range positions {
		s.X[i], s.Y[i] = p.X, p.Y
	}
	return s
}

// Positions reconstructs the checkpointed node positions.
func (s *State) Positions() []geom.Point {
	out := make([]geom.Point, len(s.X))
	for i := range s.X {
		out[i] = geom.Pt(s.X[i], s.Y[i])
	}
	return out
}

// Write serializes the state as indented JSON. encoding/json emits float64
// values in their shortest round-trippable form, so positions survive the
// trip bit-exactly — the property the engine's resume contract rests on.
func (s *State) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// WriteFile writes the state to path.
func (s *State) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	if err := s.Write(f); err != nil {
		return fmt.Errorf("snapshot: encoding %s: %w", path, err)
	}
	return f.Close()
}

// ReadState parses a resumable checkpoint and validates its shape.
func ReadState(r io.Reader) (*State, error) {
	var s State
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("snapshot: decoding state: %w", err)
	}
	if s.Version != StateVersion {
		return nil, fmt.Errorf("snapshot: unsupported state version %d (want %d)", s.Version, StateVersion)
	}
	if s.Kind != KindEngine && s.Kind != KindAsync {
		return nil, fmt.Errorf("snapshot: unknown state kind %q", s.Kind)
	}
	if len(s.X) != len(s.Y) {
		return nil, fmt.Errorf("snapshot: inconsistent position arrays x=%d y=%d", len(s.X), len(s.Y))
	}
	if s.Config.K < 1 {
		return nil, fmt.Errorf("snapshot: invalid config k=%d", s.Config.K)
	}
	if s.Round < 0 {
		return nil, fmt.Errorf("snapshot: negative round %d", s.Round)
	}
	return &s, nil
}

// ReadStateFile parses the checkpoint at path.
func ReadStateFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	return ReadState(f)
}
