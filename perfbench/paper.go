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

// paperCase is one of the paper's evaluation regimes, run serially.
type paperCase struct {
	name       string
	sequential bool // run in Sequential (Gauss–Seidel) order
}

// The five regimes: corner pile (Fig. 5/6, Synchronous), uniform in
// Sequential order, Algorithm 2 with message accounting, the non-convex
// L-shape (4 convex pieces), and Fig. 8 II's two obstacles (44 pieces).
var paperCases = []paperCase{
	{"corner", false},
	{"uniform", true},
	{"localized", false},
	{"lshape", false},
	{"obstacles2", false},
}

func (pc paperCase) spec(seed int64) (scenario.Scenario, error) {
	sc, err := lookup(pc.name, seed)
	if pc.sequential {
		sc.Config.Order = core.Sequential
	}
	return sc, err
}

const (
	// paperSetupReps is how many times the five runners are built to time
	// set-up; a set-up takes well under a millisecond, so the median needs
	// many.
	paperSetupReps = 21
	// paperInstances placements per regime: pass p runs instance p mod
	// paperInstances. How long a regime takes to converge, and what its
	// rounds cost, depends on the placement; pooling four placements per
	// regime keeps that from dominating the spread between seeds.
	paperInstances = 4
	// paperSeedPool is the number of scenario seeds (1…paperSeedPool) the
	// instances are drawn from. Every regime converges within its 500-round
	// cap at each of them; some other seeds never converge in obstacles2
	// (the run oscillates at the ε scale), which would fail the run.
	paperSeedPool = 24
)

// paperSeeds draws a regime's instance seeds from the pool, by a
// permutation keyed on the workload seed and the regime.
func paperSeeds(seed int64, name string) []int64 {
	perm := rand.New(rand.NewSource(subSeed(seed, "paper/"+name))).Perm(paperSeedPool)
	out := make([]int64, paperInstances)
	for i := range out {
		out[i] = int64(perm[i] + 1)
	}
	return out
}

// runPaper runs the five regimes from their seeded start to convergence on
// one worker, pass after pass, until the window is used up and every
// instance has run once.
func runPaper(cfg runConfig, chk *checker) (*outcome, error) {
	ctx := context.Background()
	tr := cfg.tr
	scs := make([][]scenario.Scenario, paperInstances)
	for _, pc := range paperCases {
		for inst, seed := range paperSeeds(cfg.seed, pc.name) {
			sc, err := pc.spec(seed)
			if err != nil {
				return nil, err
			}
			scs[inst] = append(scs[inst], sc)
		}
	}

	var setups []float64
	for rep := 0; rep < paperSetupReps; rep++ {
		runtime.GC() // every set-up starts from the same heap state
		t0 := time.Now()
		for _, sc := range scs[rep%paperInstances] {
			if _, err := newRunner(tr, 0, sc.Name+"/setup", sc, scenario.WithWorkers(1)); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Per regime, one value per run for the solve and tail metrics; the
	// report takes the median over runs, so an interference burst during one
	// run does not move it.
	type perCase struct {
		firsts    []float64 // first round, ms
		perRound  []float64 // solve ms ÷ rounds
		tails     []float64 // p90 of the run's round times, ms
		intervals []float64 // every round's wall time, ms
		rounds    int       // of the first pass's instance
		digests   []string  // per instance
	}
	cases := make([]perCase, len(paperCases))
	var counters engineCounters
	kern := newKernelStats()
	var meter passMeter
	allRounds := 0
	meter.start()
	start := time.Now()
	passes := 0
	for passes < paperInstances || time.Since(start) < cfg.seconds {
		inst := passes % paperInstances
		passID := tr.begin("pass", 0, fmt.Sprintf("pass-%d", passes))
		for i, sc := range scs[inst] {
			key := fmt.Sprintf("%s/seed-%d/pass-%d", sc.Name, sc.Seed(), passes)
			root := tr.begin("scenario.run", passID, key)
			rn, err := newRunner(tr, root, key, sc, scenario.WithWorkers(1))
			if err != nil {
				return nil, err
			}
			eng, _ := scenario.Engine(rn.r)
			before, netBefore := eng.CacheCounters(), netCounters(eng.Network())
			sr, err := rn.solve(ctx, tr, root, key)
			tr.end(root)
			if !chk.op(key, err) {
				continue
			}
			c := &cases[i]
			allRounds += sr.res.Rounds
			c.firsts = append(c.firsts, ms(sr.first()))
			c.perRound = append(c.perRound, ms(sr.total)/float64(max(sr.res.Rounds, 1)))
			var run []float64
			for _, d := range sr.rounds {
				run = append(run, ms(d))
			}
			c.tails = append(c.tails, percentile(run, 90))
			c.intervals = append(c.intervals, run...)
			reg, err := sc.BuildRegion()
			if err != nil {
				return nil, err
			}
			d := chk.result(key, sr.res, reg, sc.Config.K, true)
			switch {
			case passes < paperInstances:
				if passes == 0 {
					c.rounds = sr.res.Rounds
				}
				c.digests = append(c.digests, d)
				checkPin(chk, fmt.Sprintf("paper/%s/seed-%d", sc.Name, sc.Seed()), d)
			default:
				// Later passes repeat an instance: same bits as its first run.
				chk.expect(key, d, c.digests[inst])
			}
			if tr != nil && passes == 0 {
				counters.add(eng, before, netBefore)
				if err := kern.replay(tr, passID, key, sc.Region, reg, eng.Config(), sr.res.Positions); err != nil {
					return nil, err
				}
			}
		}
		meter.passDone()
		tr.end(passID)
		passes++
	}

	var solvePerRound, firsts, p50s, p90s, coldSteps []float64
	totalRounds := 0
	perCaseDetail := map[string]any{}
	for i, c := range cases {
		if len(c.perRound) == 0 {
			return nil, fmt.Errorf("%s: no successful run", paperCases[i].name)
		}
		solvePerRound = append(solvePerRound, median(c.perRound))
		firsts = append(firsts, median(c.firsts))
		coldSteps = append(coldSteps, c.firsts...)
		p50s = append(p50s, percentile(c.intervals, 50))
		p90s = append(p90s, median(c.tails))
		totalRounds += c.rounds
		perCaseDetail[paperCases[i].name] = map[string]any{
			"solve_ms_per_round": c.perRound, "round_ms_p90": c.tails, "first_round_ms": c.firsts,
			"first_pass_rounds": c.rounds, "digests": c.digests,
			"round_ms_p50": percentile(c.intervals, 50), "round_samples": len(c.intervals),
		}
	}
	solve := geomean(solvePerRound)
	out := &outcome{
		passes:  passes,
		clients: 1,
		endToEnd: map[string]float64{
			"setup_s":          median(setups),
			"solve_ms":         solve,
			"first_round_ms":   geomean(firsts),
			"latency_p50_ms":   geomean(p50s),
			"latency_tail_ms":  geomean(p90s),
			"throughput_per_s": 1000 / solve,
		},
		details: map[string]any{"cases": perCaseDetail},
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
		m["core.rounds"] = float64(totalRounds)
		counters.metrics(m)
		kern.metrics(m)
		out.perLayer = m
	}
	meter.metrics(out.endToEnd, out.perLayer)
	// Passes differ in length (each runs other placements), so allocation
	// is reported per 1000 rounds rather than per pass.
	var allocMB float64
	for _, a := range meter.allocMB {
		allocMB += a
	}
	out.endToEnd["alloc_mb"] = allocMB / float64(max(allRounds, 1)) * 1000
	return out, nil
}
