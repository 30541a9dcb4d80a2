package core

import (
	"fmt"

	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/snapshot"
)

// Checkpoint/resume for the synchronous engine.
//
// The engine's complete mutable state is (positions, round counter, trace,
// convergence flag, message counters) + Config: every random draw comes from
// a stream derived from (Config.Seed, round, node ID), so no generator state
// needs to be captured. A run resumed from a Snapshot therefore replays the
// remaining rounds bit-identically to the uninterrupted run — the PR 1
// determinism contract extended to interrupted runs.

// Snapshot captures the engine's state between rounds as a resumable
// checkpoint. Call it only between Steps (e.g. from an Observer or after Run
// returns); calling it concurrently with a Step would observe a torn round.
func (e *Engine) Snapshot() (*snapshot.State, error) {
	// Exclude offRoundMsgs: a checkpoint is round-boundary state, and the
	// resumed run performs its own final radius collection. Keeping the
	// interrupted run's partial-result assembly or DebugRegions searches in
	// the count would make the resumed total exceed an uninterrupted run's.
	msgs := e.msgBase + e.net.MessageCount() - e.offRoundMsgs
	return Checkpoint(e.net.Positions(), e.cfg, e.round, e.Converged(), e.trace, msgs), nil
}

// Checkpoint builds the engine checkpoint at a round boundary — the one
// encoding both engines write (and Resume reads): positions, completed
// rounds, convergence, trace, message count and configuration.
func Checkpoint(pos []geom.Point, cfg Config, round int, converged bool, trace []RoundStats, msgs int64) *snapshot.State {
	st := snapshot.NewState(snapshot.KindEngine, pos)
	st.Round, st.Converged, st.Messages = round, converged, msgs
	st.Trace, st.Config = TraceToState(trace), ConfigToState(cfg)
	return st
}

// Resume reconstructs an engine from a checkpoint over reg. The region must
// be the one the original run deployed over (checkpoints record only its
// registered name, not its geometry).
func Resume(reg *region.Region, st *snapshot.State) (*Engine, error) {
	if st.Kind != snapshot.KindEngine {
		return nil, fmt.Errorf("core: cannot resume %q checkpoint with the round engine", st.Kind)
	}
	e, err := New(reg, st.Positions(), ConfigFromState(st.Config))
	if err != nil {
		return nil, err
	}
	e.round = st.Round
	e.converged = st.Converged
	e.trace = TraceFromState(st.Trace)
	e.msgBase = st.Messages
	return e, nil
}

// ConfigToState extracts the serializable subset of a Config — the schema
// shared by resumable checkpoints and the scenario wire format.
func ConfigToState(c Config) snapshot.ConfigState {
	return snapshot.ConfigState{
		K:           c.K,
		Alpha:       c.Alpha,
		Epsilon:     c.Epsilon,
		MaxRounds:   c.MaxRounds,
		Mode:        int(c.Mode),
		Order:       int(c.Order),
		Gamma:       c.Gamma,
		LossRate:    c.LossRate,
		LossRetries: c.LossRetries,
		ArcSamples:  c.ArcSamples,
		RingCap:     c.RingCap,
		Seed:        c.Seed,
		Workers:     c.Workers,
	}
}

// ConfigFromState rebuilds a Config from its serialized form.
func ConfigFromState(s snapshot.ConfigState) Config {
	return Config{
		K:           s.K,
		Alpha:       s.Alpha,
		Epsilon:     s.Epsilon,
		MaxRounds:   s.MaxRounds,
		Mode:        Mode(s.Mode),
		Order:       UpdateOrder(s.Order),
		Gamma:       s.Gamma,
		LossRate:    s.LossRate,
		LossRetries: s.LossRetries,
		ArcSamples:  s.ArcSamples,
		RingCap:     s.RingCap,
		Seed:        s.Seed,
		Workers:     s.Workers,
	}
}

// TraceToState converts a trace to its checkpoint form.
func TraceToState(trace []RoundStats) []snapshot.RoundState {
	out := make([]snapshot.RoundState, len(trace))
	for i, tr := range trace {
		out[i] = snapshot.RoundState{
			Round:           tr.Round,
			MaxCircumradius: tr.MaxCircumradius,
			MinCircumradius: tr.MinCircumradius,
			MaxRhat:         tr.MaxRhat,
			MaxMove:         tr.MaxMove,
			Moved:           tr.Moved,
			Messages:        tr.Messages,
		}
	}
	return out
}

// TraceFromState rebuilds a trace from its checkpoint form.
func TraceFromState(trace []snapshot.RoundState) []RoundStats {
	out := make([]RoundStats, len(trace))
	for i, tr := range trace {
		out[i] = RoundStats{
			Round:           tr.Round,
			MaxCircumradius: tr.MaxCircumradius,
			MinCircumradius: tr.MinCircumradius,
			MaxRhat:         tr.MaxRhat,
			MaxMove:         tr.MaxMove,
			Moved:           tr.Moved,
			Messages:        tr.Messages,
		}
	}
	return out
}
