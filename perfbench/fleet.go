package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"laacad/internal/core"
	"laacad/internal/scenario"
)

// fleetCase is one 10k-node cold deployment.
type fleetCase struct {
	key, scenario string
	workers       int
	shards        int  // > 1 runs the sharded engine
	sequential    bool // run in Sequential order (level-scheduled waves)
}

// The shared-engine square1km deployment comes first: it is the one that
// then takes the failures. The sharded run splits the same two cores by
// stripe instead of by node, and must produce the same bits.
var fleetCases = []fleetCase{
	{key: "square1km", scenario: "square1km", workers: 2},
	{key: "square1km-sharded", scenario: "square1km", workers: 1, shards: 2},
	{key: "square1km-localized-seq", scenario: "square1km-localized", workers: 2, sequential: true},
	{key: "campus", scenario: "campus", workers: 2},
}

const (
	// fleetHeals single-node failures per pass; three passes give 120
	// heals, so at least ten lie beyond p90.
	fleetHeals     = 40
	fleetMinPasses = 3
	fleetSetupReps = 9
	// healRoundCap is the most rounds one heal may take before it counts
	// as failed; the deployment's own cap is lifted above the total.
	healRoundCap = 500
)

func (fc fleetCase) spec(seed int64) (scenario.Scenario, error) {
	sc, err := lookup(fc.scenario, seed)
	if fc.sequential {
		sc.Config.Order = core.Sequential
	}
	return sc, err
}

func (fc fleetCase) options(workers int, shards int) []scenario.Option {
	return []scenario.Option{
		scenario.WithWorkers(workers),
		scenario.WithShards(shards),
		scenario.WithMaxRounds(healRoundCap * (fleetHeals + 1)),
	}
}

// fleetVictims draws the failure sequence: the index of the node to remove
// from a deployment that has lost j nodes already.
func fleetVictims(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(subSeed(seed, "fleet/victims")))
	out := make([]int, fleetHeals)
	for j := range out {
		out[j] = rng.Intn(n - j)
	}
	return out
}

// runFleet cold-deploys the four 10k-node cases, then heals the shared-engine
// square1km deployment through a seeded sequence of single-node failures,
// pass after pass (same inputs every pass) until the window is used up.
func runFleet(cfg runConfig, chk *checker) (*outcome, error) {
	ctx := context.Background()
	tr := cfg.tr
	scs := make([]scenario.Scenario, len(fleetCases))
	for i, fc := range fleetCases {
		sc, err := fc.spec(cfg.seed)
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	build := func(parent, i int, suffix string) (*runner, error) {
		fc := fleetCases[i]
		return newRunner(tr, parent, fc.key+suffix, scs[i], fc.options(fc.workers, fc.shards)...)
	}

	var setups []float64
	for rep := 0; rep < fleetSetupReps; rep++ {
		runtime.GC() // every set-up starts from the same heap state
		t0 := time.Now()
		for i := range fleetCases {
			if _, err := build(0, i, "/setup"); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	deploys := make([][]float64, len(fleetCases))
	firsts := make([][]float64, len(fleetCases))
	digests := make([]string, len(fleetCases))
	var heals, healNodes []float64
	var healDigests []string // pass 0's, the reference for later passes
	var counters engineCounters
	var halo [3]float64
	kern := newKernelStats()
	var meter passMeter
	rounds := 0

	meter.start()
	start := time.Now()
	passes := 0
	for passes < fleetMinPasses || time.Since(start) < cfg.seconds {
		passID := tr.begin("pass", 0, fmt.Sprintf("pass-%d", passes))
		var healer *runner
		for i, fc := range fleetCases {
			key := fmt.Sprintf("%s/pass-%d", fc.key, passes)
			root := tr.begin("deploy", passID, key)
			rn, err := build(root, i, fmt.Sprintf("/pass-%d", passes))
			if err != nil {
				return nil, err
			}
			eng, isCore := scenario.Engine(rn.r)
			var before core.CacheCounters
			var netBefore [3]uint64
			if isCore {
				before, netBefore = eng.CacheCounters(), netCounters(eng.Network())
			}
			sr, err := rn.solve(ctx, tr, root, key)
			tr.end(root)
			if !chk.op(key, err) {
				continue
			}
			deploys[i] = append(deploys[i], ms(sr.total))
			firsts[i] = append(firsts[i], ms(sr.first()))
			reg, err := scs[i].BuildRegion()
			if err != nil {
				return nil, err
			}
			d := chk.result(key, sr.res, reg, scs[i].Config.K, true)
			switch {
			case fc.shards > 1:
				chk.expect(key+" vs shared engine", d, digests[0])
			case passes == 0:
				digests[i] = d
				checkPin(chk, fmt.Sprintf("fleet/%s/seed-%d", fc.key, cfg.seed), d)
			default:
				chk.expect(key, d, digests[i])
			}
			if passes == 0 {
				rounds += sr.res.Rounds
			}
			if tr != nil && passes == 0 {
				if isCore {
					counters.add(eng, before, netBefore)
					if fc.shards <= 1 {
						if err := kern.replay(tr, passID, key, scs[i].Region, reg, eng.Config(), sr.res.Positions); err != nil {
							return nil, err
						}
					}
				} else if se, ok := scenario.ShardEngine(rn.r); ok {
					h := se.HaloStats()
					halo = [3]float64{float64(h.Msgs), float64(h.Bytes), float64(h.Exchanges)}
				}
			}
			if i == 0 {
				healer = rn
			}
		}
		if healer == nil {
			return nil, fmt.Errorf("square1km deployment failed; no engine to heal")
		}
		eng, _ := scenario.Engine(healer.r)
		reg, err := scs[0].BuildRegion()
		if err != nil {
			return nil, err
		}
		for j, v := range fleetVictims(cfg.seed, eng.Network().Len()) {
			key := fmt.Sprintf("heal-%d/pass-%d", j, passes)
			root := tr.begin("heal", passID, key)
			before, netBefore := eng.CacheCounters(), netCounters(eng.Network())
			roundsBefore := eng.Round()
			t0 := time.Now()
			id := tr.begin("core.remove_node", root, key)
			err := eng.RemoveNode(v)
			tr.end(id)
			var sr solveRun
			if err == nil {
				sr, err = healer.solve(ctx, tr, root, key)
			}
			elapsed := time.Since(t0)
			tr.end(root)
			if !chk.op(key, err) {
				continue
			}
			heals = append(heals, ms(elapsed))
			if used := sr.res.Rounds - roundsBefore; used > healRoundCap {
				chk.fail("%s: heal took %d rounds (cap %d)", key, used, healRoundCap)
			}
			d := chk.result(key, sr.res, reg, scs[0].Config.K, true)
			if passes == 0 {
				healDigests = append(healDigests, d)
				rounds += sr.res.Rounds - roundsBefore
			} else if j < len(healDigests) {
				chk.expect(key, d, healDigests[j])
			}
			if tr != nil && passes == 0 {
				counters.add(eng, before, netBefore)
				healNodes = append(healNodes, float64(eng.CacheCounters().BatchNodes-before.BatchNodes))
			}
		}
		meter.passDone()
		tr.end(passID)
		passes++
	}

	c := newChain()
	for _, d := range healDigests {
		c.add(d)
	}
	if !checkPin(chk, fmt.Sprintf("fleet/heals/seed-%d", cfg.seed), c.sum()) {
		if err := fleetReference(ctx, cfg.seed, scs, digests, healDigests, chk); err != nil {
			return nil, err
		}
	}

	var deployMed, firstMed, coldSteps []float64
	detail := map[string]any{}
	for i, fc := range fleetCases {
		if len(deploys[i]) == 0 {
			return nil, fmt.Errorf("%s: no successful deployment", fc.key)
		}
		deployMed = append(deployMed, median(deploys[i]))
		firstMed = append(firstMed, median(firsts[i]))
		coldSteps = append(coldSteps, firsts[i]...)
		detail[fc.key] = map[string]any{"deploy_ms_p50": median(deploys[i]), "first_round_ms_p50": median(firsts[i]), "digest": digests[i]}
	}
	var healSum float64
	for _, h := range heals {
		healSum += h
	}
	detail["heals"] = map[string]any{"samples": len(heals), "p50_ms": percentile(heals, 50), "p90_ms": percentile(heals, 90), "beyond_p90": len(heals) / 10}
	out := &outcome{
		passes:  passes,
		clients: 1,
		details: detail,
		endToEnd: map[string]float64{
			"setup_s":          median(setups),
			"solve_ms":         geomean(deployMed),
			"first_round_ms":   geomean(firstMed),
			"latency_p50_ms":   percentile(heals, 50),
			"latency_tail_ms":  percentile(heals, 90),
			"throughput_per_s": float64(len(heals)) / (healSum / 1000),
		},
	}
	if tr != nil {
		spans := tr.snapshot()
		m := zeroLayers()
		m["scenario.new_runner_ms"] = median(durations(spans, "scenario.new_runner")) / 1e6
		steps := durations(spans, "core.step")
		m["core.step_p50_us"] = percentile(steps, 50) / 1e3
		m["core.step_p99_us"] = percentile(steps, 99) / 1e3
		m["core.cold_step_ms"] = median(coldSteps)
		m["core.finalize_ms"] = median(durations(spans, "core.finalize")) / 1e6
		m["core.rounds"] = float64(rounds)
		counters.metrics(m)
		m["core.heal_nodes_recomputed_p50"] = median(healNodes)
		kern.metrics(m)
		m["shard.step_p50_us"] = median(durations(spans, "shard.step")) / 1e3
		m["shard.halo_msgs"], m["shard.halo_bytes"], m["shard.exchanges"] = halo[0], halo[1], halo[2]
		out.perLayer = m
	}
	meter.metrics(out.endToEnd, out.perLayer)
	return out, nil
}

// fleetReference replays every deployment and the failure sequence on one
// worker with the shared-memory engine — the serial, unsharded reference a
// seed without pinned digests is checked against. It runs outside the timed
// windows.
func fleetReference(ctx context.Context, seed int64, scs []scenario.Scenario, digests, healDigests []string, chk *checker) error {
	var healer scenario.Runner
	for i, fc := range fleetCases {
		if fc.shards > 1 {
			continue // same scenario as the shared case, already compared
		}
		r, err := scenario.NewRunner(scs[i], fc.options(1, 0)...)
		if err != nil {
			return err
		}
		res, err := r.Run(ctx)
		if err != nil {
			return err
		}
		chk.expect("serial reference "+fc.key, digests[i], digest(res))
		if i == 0 {
			healer = r
		}
	}
	eng, _ := scenario.Engine(healer)
	for j, v := range fleetVictims(seed, eng.Network().Len()) {
		if err := eng.RemoveNode(v); err != nil {
			return err
		}
		res, err := healer.Run(ctx)
		if err != nil {
			return err
		}
		if j < len(healDigests) {
			chk.expect(fmt.Sprintf("serial reference heal-%d", j), healDigests[j], digest(res))
		}
	}
	return nil
}
