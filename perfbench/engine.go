package main

import (
	"context"
	"fmt"
	"time"

	"laacad/internal/core"
	"laacad/internal/geom"
	"laacad/internal/region"
	"laacad/internal/scenario"
	"laacad/internal/wsn"
)

// subSeed derives an independent seed for one input stream (failure victims,
// job seeds, job order) from the workload seed, by splitmix64 over the seed
// and a stream tag.
func subSeed(seed int64, tag string) int64 {
	x := uint64(seed)
	for _, c := range []byte(tag) {
		x = x*0x100000001b3 ^ uint64(c)
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64((x ^ (x >> 31)) >> 1)
}

// solveRun is one solve of a runner to its Result, timed from outside.
type solveRun struct {
	res    *core.Result
	total  time.Duration   // Run (or Step…Finalize) to Result in hand
	rounds []time.Duration // wall time of each round, the first from the start
}

func (s solveRun) first() time.Duration {
	if len(s.rounds) == 0 {
		return s.total
	}
	return s.rounds[0]
}

// runner is a scenario runner plus the round clock its observer feeds.
type runner struct {
	r      scenario.Runner
	stamps []time.Time
}

// newRunner builds sc's runner. Untraced, a round observer stamps each round
// as Run completes it; traced, the spans around Step do.
func newRunner(tr *tracer, parent int, key string, sc scenario.Scenario, opts ...scenario.Option) (*runner, error) {
	rn := &runner{stamps: make([]time.Time, 0, 512)}
	if tr == nil {
		opts = append(opts, scenario.WithObserver(func(scenario.Runner, core.RoundStats) error {
			rn.stamps = append(rn.stamps, time.Now())
			return nil
		}))
	}
	id := tr.begin("scenario.new_runner", parent, key)
	r, err := scenario.NewRunner(sc, opts...)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	rn.r = r
	return rn, nil
}

// solve runs the runner until it converges or exhausts its round budget.
// Untraced this is exactly Runner.Run. Traced, it drives the engine's Step
// and Finalize directly — the same calls Run makes — with a span around each.
func (rn *runner) solve(ctx context.Context, tr *tracer, parent int, key string) (solveRun, error) {
	rn.stamps = rn.stamps[:0]
	start := time.Now()
	var res *core.Result
	var err error
	switch {
	case tr == nil:
		res, err = rn.r.Run(ctx)
	default:
		res, err = rn.stepTraced(ctx, tr, parent, key)
	}
	out := solveRun{res: res, total: time.Since(start)}
	prev := start
	for _, t := range rn.stamps {
		out.rounds = append(out.rounds, t.Sub(prev))
		prev = t
	}
	if err == nil && res == nil {
		err = fmt.Errorf("%s: no result", key)
	}
	return out, err
}

func (rn *runner) stepTraced(ctx context.Context, tr *tracer, parent int, key string) (*core.Result, error) {
	if eng, ok := scenario.Engine(rn.r); ok {
		for !eng.Converged() && eng.Round() < eng.Config().MaxRounds {
			id := tr.begin("core.step", parent, key)
			eng.Step()
			tr.end(id)
			rn.stamps = append(rn.stamps, time.Now())
		}
		id := tr.begin("core.finalize", parent, key)
		defer tr.end(id)
		return eng.Finalize()
	}
	se, ok := scenario.ShardEngine(rn.r)
	if !ok {
		return nil, fmt.Errorf("%s: runner has no steppable engine", key)
	}
	for !se.Converged() && se.Round() < se.Config().MaxRounds {
		id := tr.begin("shard.step", parent, key)
		se.Step()
		tr.end(id)
		rn.stamps = append(rn.stamps, time.Now())
	}
	// With the engine converged (or out of rounds) Run executes no round: it
	// only finalizes and releases the shard goroutines.
	id := tr.begin("shard.finalize", parent, key)
	defer tr.end(id)
	return rn.r.Run(ctx)
}

// engineCounters sums the work counters of the shared-memory engines a pass
// ran.
type engineCounters struct {
	c                        core.CacheCounters
	rebuilds, incMoves, msgs uint64
}

func (e *engineCounters) add(eng *core.Engine, before core.CacheCounters, netBefore [3]uint64) {
	after := eng.CacheCounters()
	e.c.CacheHits += after.CacheHits - before.CacheHits
	e.c.BatchNodes += after.BatchNodes - before.BatchNodes
	e.c.CellVisits += after.CellVisits - before.CellVisits
	e.c.CandidateVisits += after.CandidateVisits - before.CandidateVisits
	e.c.PairVisits += after.PairVisits - before.PairVisits
	e.c.PairScans += after.PairScans - before.PairScans
	e.c.SpecComputed += after.SpecComputed - before.SpecComputed
	e.c.SpecUsed += after.SpecUsed - before.SpecUsed
	e.c.Levels += after.Levels - before.Levels
	e.c.FlagEvals += after.FlagEvals - before.FlagEvals
	n := netCounters(eng.Network())
	e.rebuilds += n[0] - netBefore[0]
	e.incMoves += n[1] - netBefore[1]
	e.msgs += n[2] - netBefore[2]
}

func netCounters(net *wsn.Network) [3]uint64 {
	return [3]uint64{net.Rebuilds(), net.IncrementalMoves(), uint64(net.MessageCount())}
}

func (e *engineCounters) metrics(m map[string]float64) {
	c := e.c
	m["core.nodes_recomputed"] = float64(c.BatchNodes)
	if c.CacheHits+c.BatchNodes > 0 {
		m["core.cache_hit_ratio"] = float64(c.CacheHits) / float64(c.CacheHits+c.BatchNodes)
	}
	m["core.invalidation_visits"] = float64(c.CellVisits + c.CandidateVisits + c.PairVisits)
	m["core.pair_scans"] = float64(c.PairScans)
	if c.SpecComputed > 0 {
		m["core.spec_used_ratio"] = float64(c.SpecUsed) / float64(c.SpecComputed)
	}
	m["core.levels"] = float64(c.Levels)
	m["boundary.flag_evals"] = float64(c.FlagEvals)
	m["wsn.rebuilds"] = float64(e.rebuilds)
	m["wsn.incremental_moves"] = float64(e.incMoves)
	m["wsn.messages"] = float64(e.msgs)
}

// kernelStats collects per-node kernel timings by region name.
type kernelStats struct {
	regionUS, chebUS map[string][]float64
	pieces           map[string]int
}

func newKernelStats() *kernelStats {
	return &kernelStats{regionUS: map[string][]float64{}, chebUS: map[string][]float64{}, pieces: map[string]int{}}
}

// replay times the per-node region kernel and Chebyshev center over a
// converged deployment's final positions, outside every end-to-end window:
// a fresh Stepper over a fresh network, one RegionPolys and one
// ChebyshevOfRegion per node.
func (k *kernelStats) replay(tr *tracer, parent int, key, regName string, reg *region.Region, cfg core.Config, pos []geom.Point) error {
	st, err := core.NewStepper(reg, len(pos), cfg)
	if err != nil {
		return fmt.Errorf("%s replay: %w", key, err)
	}
	net := wsn.New(pos, st.IndexGamma())
	net.SetBoundsHint(reg.BBox())
	st.SetNetwork(net)
	var flags []bool
	if st.Config().Mode == core.Localized {
		flags = st.Detector().Boundary(net)
	}
	k.pieces[regName] = len(reg.Pieces())
	replayID := tr.begin("replay", parent, key)
	defer tr.end(replayID)
	s := core.NewScratch()
	for i := range pos {
		t0 := time.Now()
		polys, _ := st.RegionPolys(i, 0, flags != nil && flags[i], nil, s)
		t1 := time.Now()
		core.ChebyshevOfRegion(polys, s)
		t2 := time.Now()
		tr.record("voronoi.region", replayID, key, t0, t1)
		tr.record("geom.chebyshev", replayID, key, t1, t2)
		k.regionUS[regName] = append(k.regionUS[regName], us(t1.Sub(t0)))
		k.chebUS[regName] = append(k.chebUS[regName], us(t2.Sub(t1)))
	}
	return nil
}

// metrics reports the median per-node cost and the piece count of every
// region replayed.
func (k *kernelStats) metrics(m map[string]float64) {
	for name, xs := range k.regionUS {
		m["voronoi.region_us."+name] = median(xs)
		m["geom.chebyshev_us."+name] = median(k.chebUS[name])
		m["region.pieces."+name] = float64(k.pieces[name])
	}
}

// zeroLayers returns every per-layer metric at 0, the value reported for a
// layer the workload does not exercise.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// lookup returns the registered scenario reseeded to seed.
func lookup(name string, seed int64) (scenario.Scenario, error) {
	sc, err := scenario.Lookup(name)
	if err != nil {
		return sc, err
	}
	return sc.WithSeed(seed), nil
}
