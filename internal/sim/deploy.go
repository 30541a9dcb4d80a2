package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"laacad/internal/core"
	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/snapshot"
	"laacad/internal/wsn"
)

// Config parameterizes an asynchronous LAACAD deployment.
type Config struct {
	// K is the coverage order.
	K int
	// Alpha is the per-activation step size in (0, 1].
	Alpha float64
	// Epsilon is the stopping tolerance (distance to the Chebyshev center).
	Epsilon float64
	// Tau is the activation period in seconds (the paper's "every τ ms").
	Tau float64
	// Jitter is the uniform activation-period jitter as a fraction of Tau
	// (e.g. 0.1 → periods in [0.9τ, 1.1τ]). Zero means 0.1; clocks never
	// align exactly, which is the point of the asynchronous model.
	Jitter float64
	// Speed is the maximum motion speed in region units per second. Zero
	// means effectively unbounded (a node reaches its target within one
	// activation period).
	Speed float64
	// MaxTime caps the simulated duration in seconds.
	MaxTime float64
	// StableActivations is the number of consecutive no-move activations
	// after which a node is considered settled (default 3). The deployment
	// converges when every node is settled.
	StableActivations int
	// Seed drives activation jitter and the randomized geometry.
	Seed int64
}

// DefaultConfig mirrors core.DefaultConfig for the asynchronous setting.
func DefaultConfig(k int) Config {
	return Config{
		K:       k,
		Alpha:   0.5,
		Epsilon: 1e-4,
		Tau:     1.0,
		MaxTime: 2000,
	}
}

// Validate reports the first setting a deployment of n nodes cannot use,
// naming the field by its wire (JSON) name. Zero Jitter and
// StableActivations select their defaults and are valid.
func (c Config) Validate(n int) error {
	switch {
	case c.K < 1:
		return fmt.Errorf("sim: k must be >= 1, got %d", c.K)
	case n < c.K:
		return fmt.Errorf("sim: need at least k=%d nodes, got %d", c.K, n)
	case !(c.Alpha > 0 && c.Alpha <= 1): // also rejects NaN
		return fmt.Errorf("sim: alpha must be in (0, 1], got %v", c.Alpha)
	case !(c.Epsilon > 0):
		return fmt.Errorf("sim: epsilon must be positive, got %v", c.Epsilon)
	case !(c.Tau > 0):
		return fmt.Errorf("sim: tau must be positive, got %v", c.Tau)
	case !(c.MaxTime > 0):
		return fmt.Errorf("sim: max_time must be positive, got %v", c.MaxTime)
	case !(c.Jitter >= 0 && c.Jitter < 1):
		return fmt.Errorf("sim: jitter must be in [0, 1), got %v", c.Jitter)
	case c.StableActivations < 0:
		return fmt.Errorf("sim: stable_activations must be >= 0, got %d", c.StableActivations)
	}
	return nil
}

// Result is the outcome of an asynchronous deployment.
type Result struct {
	// Positions and Radii are the final deployment (as in core.Result).
	Positions []geom.Point
	Radii     []float64
	// Time is the simulated time at which the run ended.
	Time float64
	// Activations is the total number of node activations executed.
	Activations int64
	// Converged reports whether every node settled before MaxTime.
	Converged bool
	// TotalTravel is the summed path length driven by all nodes — with
	// finite speed this is the real motion cost of the deployment.
	TotalTravel float64
}

// MaxRadius returns the paper's objective R = max_i r_i. A degenerate
// result with no radii reports 0.
func (r *Result) MaxRadius() float64 {
	if len(r.Radii) == 0 {
		return 0
	}
	m := r.Radii[0]
	for _, v := range r.Radii[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// MinRadius returns min_i r_i. A degenerate result with no radii reports 0.
func (r *Result) MinRadius() float64 {
	if len(r.Radii) == 0 {
		return 0
	}
	m := r.Radii[0]
	for _, v := range r.Radii[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Deployment is an asynchronous LAACAD run in progress.
type Deployment struct {
	sim *Sim
	reg *region.Region
	net *wsn.Network
	cfg Config
	rng *rand.Rand
	// step runs each activation's node step — dominating region, Chebyshev
	// center, motion rule — exactly as the round engine does, over the
	// deployment's network. The event loop is a single goroutine, so one
	// scratch serves every activation and the pipeline runs allocation-free;
	// hint holds each node's last exactness radius, warm-starting its next
	// region search.
	step *core.Stepper
	scr  *core.Scratch
	hint []float64

	targets     []geom.Point
	lastAdvance []float64
	stable      []int
	settled     int
	activations int64
	travel      float64

	// Epoch bookkeeping: the run is segmented into τ-wide epochs, each
	// reduced to one core.RoundStats entry — the async analogue of a round,
	// streamed to the observer and archived in the trace.
	epoch    int
	acc      epochAcc
	trace    []core.RoundStats
	observer func(core.RoundStats) error

	// runCtx and stopErr carry cancellation/early-stop out of event
	// callbacks; valid only while a Run/RunAsync is executing.
	runCtx  context.Context
	stopErr error

	// Resume bases: progress carried over from the checkpoint this
	// deployment was resumed from (zero for a fresh run).
	baseTime        float64
	baseActivations int64
	baseTravel      float64
}

// epochAcc accumulates per-activation statistics within one τ epoch.
type epochAcc struct {
	maxCR, minCR float64
	maxRhat      float64
	maxMove      float64
	moved        int
}

func newEpochAcc() epochAcc { return epochAcc{minCR: math.Inf(1)} }

func (a *epochAcc) stats(epoch int) core.RoundStats {
	st := core.RoundStats{
		Round:           epoch,
		MaxCircumradius: a.maxCR,
		MinCircumradius: a.minCR,
		MaxRhat:         a.maxRhat,
		MaxMove:         a.maxMove,
		Moved:           a.moved,
	}
	if math.IsInf(st.MinCircumradius, 1) {
		st.MinCircumradius = 0
	}
	return st
}

// NewDeployment prepares an asynchronous deployment of the given initial
// positions over reg.
func NewDeployment(reg *region.Region, initial []geom.Point, cfg Config) (*Deployment, error) {
	if reg == nil {
		return nil, fmt.Errorf("sim: nil region")
	}
	if err := cfg.Validate(len(initial)); err != nil {
		return nil, err
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.1
	}
	if cfg.StableActivations == 0 {
		cfg.StableActivations = 3
	}
	pos := make([]geom.Point, len(initial))
	for i, p := range initial {
		pos[i] = reg.ClampInside(p)
	}
	net := wsn.New(pos, reg.BBox().Diagonal()/8)
	// Every position stays clamped inside reg, so region-seeded grid bounds
	// absorb all mid-simulation moves without bounds-exit rebuilds.
	net.SetBoundsHint(reg.BBox())
	step, err := core.NewStepper(reg, len(pos), core.Config{K: cfg.K, Alpha: cfg.Alpha, Epsilon: cfg.Epsilon, MaxRounds: 1})
	if err != nil {
		return nil, err
	}
	step.SetNetwork(net)
	d := &Deployment{
		sim:         &Sim{},
		reg:         reg,
		net:         net,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed + 11)),
		step:        step,
		scr:         core.NewScratch(),
		hint:        make([]float64, len(initial)),
		targets:     append([]geom.Point(nil), pos...),
		lastAdvance: make([]float64, len(initial)),
		stable:      make([]int, len(initial)),
		acc:         newEpochAcc(),
	}
	// Stagger first activations uniformly across one period so the system
	// never starts in lock-step.
	for i := range pos {
		i := i
		d.sim.Schedule(d.rng.Float64()*cfg.Tau, func() { d.activate(i) })
	}
	// Epoch ticks reduce activity into per-τ statistics and are where
	// cancellation and the observer run. They touch no node state and draw
	// no randomness, so they do not perturb the deployment's trajectory.
	d.sim.Schedule(cfg.Tau, d.epochTick)
	return d, nil
}

// SetObserver installs a per-epoch callback invoked with each τ epoch's
// statistics (the async analogue of core.Engine.SetObserver). Returning
// core.ErrStop halts the run cleanly; any other error halts it and is
// returned from Run/RunAsync alongside the partial result.
func (d *Deployment) SetObserver(fn func(core.RoundStats) error) { d.observer = fn }

// epochTick closes the current τ epoch: it flushes the accumulated
// statistics into the trace, notifies the observer, checks cancellation,
// and schedules the next tick.
func (d *Deployment) epochTick() {
	if d.runCtx != nil {
		if err := d.runCtx.Err(); err != nil {
			d.stopErr = err
			d.sim.Halt()
			return
		}
	}
	d.epoch++
	st := d.acc.stats(d.epoch)
	d.acc = newEpochAcc()
	d.trace = append(d.trace, st)
	if d.observer != nil {
		if err := d.observer(st); err != nil {
			d.stopErr = err
			d.sim.Halt()
			return
		}
	}
	d.sim.Schedule(d.cfg.Tau, d.epochTick)
}

// activate is one node's periodic action: advance along the current motion
// segment, recompute the dominating region from the *current* (possibly
// stale-looking) neighbor positions, retarget, and reschedule.
func (d *Deployment) activate(i int) {
	d.activations++
	d.advance(i)

	out := d.step.StepNode(i, d.hint[i], false, nil, d.scr)
	d.hint[i] = out.InvRad
	if !out.Empty {
		if out.Ri > d.acc.maxCR {
			d.acc.maxCR = out.Ri
		}
		if out.Ri < d.acc.minCR {
			d.acc.minCR = out.Ri
		}
		if out.Rhat > d.acc.maxRhat {
			d.acc.maxRhat = out.Rhat
		}
		d.targets[i] = out.Next
		if out.Moved {
			d.acc.moved++
			if d.stable[i] >= d.cfg.StableActivations {
				d.settled--
			}
			d.stable[i] = 0
		} else {
			d.stable[i]++
			if d.stable[i] == d.cfg.StableActivations {
				d.settled++
				if d.settled == d.net.Len() {
					d.sim.Halt()
					return
				}
			}
		}
	}

	period := d.cfg.Tau * (1 + d.cfg.Jitter*(2*d.rng.Float64()-1))
	d.sim.Schedule(period, func() { d.activate(i) })
}

// advance moves node i along its motion segment according to the elapsed
// time and the speed limit.
func (d *Deployment) advance(i int) {
	now := d.sim.Now()
	dt := now - d.lastAdvance[i]
	d.lastAdvance[i] = now
	ui := d.net.Position(i)
	seg := d.targets[i].Sub(ui)
	dist := seg.Norm()
	if dist < 1e-15 {
		return
	}
	reach := dist
	if d.cfg.Speed > 0 {
		if maxStep := d.cfg.Speed * dt; maxStep < reach {
			reach = maxStep
		}
	}
	step := seg.Scale(reach / dist)
	d.travel += reach
	if reach > d.acc.maxMove {
		d.acc.maxMove = reach
	}
	d.net.SetPosition(i, d.reg.ClampInside(ui.Add(step)))
}

// RunAsync executes the deployment until convergence, MaxTime, ctx
// cancellation, or an observer-requested stop, and returns the
// async-flavored result (simulated time, activation count, travel).
//
// As with core.Engine.Run, cancellation yields the partial Result together
// with ctx's error; an observer returning core.ErrStop yields the partial
// Result with a nil error. Cancellation is checked at τ-epoch boundaries.
func (d *Deployment) RunAsync(ctx context.Context) (*Result, error) {
	d.runCtx = ctx
	d.stopErr = nil
	d.sim.Run(d.cfg.MaxTime)
	d.runCtx = nil
	n := d.net.Len()
	radii := make([]float64, n)
	for i := 0; i < n; i++ {
		radii[i] = d.step.StepNode(i, d.hint[i], false, nil, d.scr).Rhat
	}
	res := &Result{
		Positions:   d.net.Positions(),
		Radii:       radii,
		Time:        d.baseTime + d.sim.Now(),
		Activations: d.baseActivations + d.activations,
		Converged:   d.settled == n,
		TotalTravel: d.baseTravel + d.travel,
	}
	err := d.stopErr
	if errors.Is(err, core.ErrStop) {
		err = nil
	}
	return res, err
}

// Run executes the deployment and packages the outcome in the unified
// result form shared with the synchronous engine, with τ epochs playing the
// role of rounds: Rounds is the number of completed epochs and Trace holds
// one entry per epoch. Use RunAsync for the async-specific measures
// (simulated time, activations, travel).
func (d *Deployment) Run(ctx context.Context) (*core.Result, error) {
	ar, err := d.RunAsync(ctx)
	if ar == nil {
		return nil, err
	}
	return &core.Result{
		Positions: ar.Positions,
		Radii:     ar.Radii,
		Rounds:    d.epoch,
		Converged: ar.Converged,
		Trace:     append([]core.RoundStats(nil), d.trace...),
	}, err
}

// Trace returns the per-epoch statistics collected so far.
func (d *Deployment) Trace() []core.RoundStats { return d.trace }

// Snapshot captures the deployment's positions and progress as a resumable
// checkpoint. Unlike the synchronous engine's checkpoints, async checkpoints
// are positional: the pending event queue and clock-jitter generator state
// are not serializable, so Resume continues from the saved positions with
// freshly staggered clocks. The fixed points (and hence final coverage) are
// the same; the activation-by-activation event sequence is not.
func (d *Deployment) Snapshot() (*snapshot.State, error) {
	st := snapshot.NewState(snapshot.KindAsync, d.net.Positions())
	st.Round = d.epoch
	st.Converged = d.settled == d.net.Len()
	st.Time = d.baseTime + d.sim.Now()
	st.Activations = d.baseActivations + d.activations
	st.Travel = d.baseTravel + d.travel
	st.Trace = core.TraceToState(d.trace)
	st.Config = snapshot.ConfigState{
		K:       d.cfg.K,
		Alpha:   d.cfg.Alpha,
		Epsilon: d.cfg.Epsilon,
		Seed:    d.cfg.Seed,
		Tau:     d.cfg.Tau,
		Jitter:  d.cfg.Jitter,
		Speed:   d.cfg.Speed,
		// The checkpoint records the run's ORIGINAL time budget: for a
		// resumed deployment d.cfg.MaxTime is only the remaining slice, so
		// re-add the time consumed before this generation. Resume then
		// subtracts the cumulative st.Time exactly once.
		MaxTime:           d.baseTime + d.cfg.MaxTime,
		StableActivations: d.cfg.StableActivations,
	}
	return st, nil
}

// Resume reconstructs an asynchronous deployment from a checkpoint over
// reg. The remaining simulated-time budget is the original MaxTime minus
// the time already consumed; progress counters (time, activations, travel)
// continue from the checkpointed values.
func Resume(reg *region.Region, st *snapshot.State) (*Deployment, error) {
	if st.Kind != snapshot.KindAsync {
		return nil, fmt.Errorf("sim: cannot resume %q checkpoint with the async simulator", st.Kind)
	}
	cfg := Config{
		K:                 st.Config.K,
		Alpha:             st.Config.Alpha,
		Epsilon:           st.Config.Epsilon,
		Seed:              st.Config.Seed,
		Tau:               st.Config.Tau,
		Jitter:            st.Config.Jitter,
		Speed:             st.Config.Speed,
		MaxTime:           st.Config.MaxTime - st.Time,
		StableActivations: st.Config.StableActivations,
	}
	if cfg.MaxTime <= 0 {
		return nil, fmt.Errorf("sim: checkpoint has no remaining time budget (t=%v of %v)", st.Time, st.Config.MaxTime)
	}
	d, err := NewDeployment(reg, st.Positions(), cfg)
	if err != nil {
		return nil, err
	}
	d.baseTime = st.Time
	d.baseActivations = st.Activations
	d.baseTravel = st.Travel
	d.epoch = st.Round
	d.trace = core.TraceFromState(st.Trace)
	return d, nil
}

// Deploy is the one-call asynchronous entry point.
func Deploy(reg *region.Region, initial []geom.Point, cfg Config) (*Result, error) {
	d, err := NewDeployment(reg, initial, cfg)
	if err != nil {
		return nil, err
	}
	return d.RunAsync(context.Background())
}
