package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"laacad/internal/asciiplot"
	"laacad/internal/boundary"
	"laacad/internal/core"
	"laacad/internal/coverage"
	"laacad/internal/voronoi"
)

func init() {
	register("ablation-alpha", runAblationAlpha)
	register("ablation-localized", runAblationLocalized)
	register("ablation-arcsamples", runAblationArcSamples)
	register("ablation-grid", runAblationGrid)
	register("ablation-kvor", runAblationKVor)
}

// runAblationAlpha sweeps the step size α: the paper proves convergence for
// any α ∈ (0, 1] and notes smaller α converges more slowly but moves more
// smoothly. We measure rounds-to-converge and the largest single-round move.
func runAblationAlpha(cfg RunConfig) (*Output, error) {
	reg, uniform, err := resolve("square", "uniform")
	if err != nil {
		return nil, err
	}
	n, k := 60, 2
	alphas := []float64{0.25, 0.5, 0.75, 1.0}
	maxRounds := 400
	if cfg.Quick {
		n, alphas, maxRounds = 25, []float64{0.5, 1.0}, 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 900))
	start := uniform(reg, n, rng)

	out := &Output{
		Name:  "ablation-alpha",
		Title: "step size α: convergence speed vs motion smoothness",
		CSV:   map[string]string{},
	}
	rows := [][]string{}
	csv := [][]string{{"alpha", "rounds", "converged", "max_single_move", "max_r"}}
	type point struct {
		alpha   float64
		rounds  int
		maxMove float64
	}
	var pts []point
	results := make([]*core.Result, len(alphas))
	if err := forTrials(len(alphas), cfg, func(t int) error {
		c := core.DefaultConfig(k)
		c.Alpha = alphas[t]
		c.Epsilon = 1e-3
		c.MaxRounds = maxRounds
		c.Seed = cfg.Seed
		eng, err := core.New(reg, start, c)
		if err != nil {
			return err
		}
		results[t], err = eng.Run(cfg.Context())
		return err
	}); err != nil {
		return nil, err
	}
	for ai, a := range alphas {
		res := results[ai]
		var worstMove float64
		for _, tr := range res.Trace {
			if tr.MaxMove > worstMove {
				worstMove = tr.MaxMove
			}
		}
		pts = append(pts, point{a, res.Rounds, worstMove})
		rows = append(rows, []string{f64(a), fmt.Sprint(res.Rounds),
			fmt.Sprint(res.Converged), f64(worstMove), f64(res.MaxRadius())})
		csv = append(csv, []string{f64(a), fmt.Sprint(res.Rounds),
			fmt.Sprint(res.Converged), f64(worstMove), f64(res.MaxRadius())})
		rep := coverage.VerifyWorkers(res.Positions, res.Radii, reg, 60, cfg.Workers)
		out.Checks = append(out.Checks,
			check(fmt.Sprintf("α=%.2f converges and covers", a),
				res.Converged && rep.KCovered(k),
				"rounds=%d covered=%v", res.Rounds, rep.KCovered(k)))
	}
	// Smoothness: the largest single-round move grows with α.
	out.Checks = append(out.Checks,
		check("larger α moves less smoothly",
			pts[len(pts)-1].maxMove > pts[0].maxMove,
			"max move %.4f (α=%.2f) vs %.4f (α=%.2f)",
			pts[len(pts)-1].maxMove, pts[len(pts)-1].alpha, pts[0].maxMove, pts[0].alpha))
	out.Text = asciiplot.Table([]string{"alpha", "rounds", "converged", "max move", "R*"}, rows)
	out.CSV["ablation-alpha.csv"] = asciiplot.CSV(csv)
	return out, nil
}

// runAblationLocalized compares the localized (Algorithm 2) and centralized
// engines: identical dominating regions for interior nodes, message cost of
// the expanding-ring search, and end-to-end deployment agreement.
func runAblationLocalized(cfg RunConfig) (*Output, error) {
	reg, uniform, err := resolve("square", "uniform")
	if err != nil {
		return nil, err
	}
	n, k := 50, 2
	gamma := 0.22
	if cfg.Quick {
		n = 30
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 910))
	start := uniform(reg, n, rng)

	mk := func(mode core.Mode) (*core.Engine, error) {
		c := core.DefaultConfig(k)
		c.Mode = mode
		c.Gamma = gamma
		c.ArcSamples = 128
		c.Epsilon = 2e-3
		c.MaxRounds = 200
		c.Seed = cfg.Seed
		return core.New(reg, start, c)
	}
	cEng, err := mk(core.Centralized)
	if err != nil {
		return nil, err
	}
	lEng, err := mk(core.Localized)
	if err != nil {
		return nil, err
	}

	// Single-round region agreement for interior nodes.
	cRes, err := cEng.Run(cfg.Context())
	if err != nil {
		return nil, err
	}
	lRes, err := lEng.Run(cfg.Context())
	if err != nil {
		return nil, err
	}
	cRep := coverage.VerifyWorkers(cRes.Positions, cRes.Radii, reg, 60, cfg.Workers)
	lRep := coverage.VerifyWorkers(lRes.Positions, lRes.Radii, reg, 60, cfg.Workers)

	out := &Output{
		Name:  "ablation-localized",
		Title: "localized (Algorithm 2) vs centralized engine",
		CSV:   map[string]string{},
	}
	rows := [][]string{
		{"centralized", fmt.Sprint(cRes.Rounds), f64(cRes.MaxRadius()), "0", fmt.Sprint(cRep.KCovered(k))},
		{"localized", fmt.Sprint(lRes.Rounds), f64(lRes.MaxRadius()),
			fmt.Sprint(lRes.Messages), fmt.Sprint(lRep.KCovered(k))},
	}
	out.Checks = append(out.Checks,
		check("both engines k-cover", cRep.KCovered(k) && lRep.KCovered(k),
			"centralized=%v localized=%v", cRep.KCovered(k), lRep.KCovered(k)),
		check("localized R* within 25% of centralized",
			lRes.MaxRadius() < 1.25*cRes.MaxRadius() && lRes.MaxRadius() > 0.75*cRes.MaxRadius(),
			"localized %s vs centralized %s", f64(lRes.MaxRadius()), f64(cRes.MaxRadius())),
		check("localized pays messages", lRes.Messages > 0, "%d messages", lRes.Messages),
	)
	out.Text = asciiplot.Table([]string{"engine", "rounds", "R*", "messages", "covered"}, rows)
	out.CSV["ablation-localized.csv"] = asciiplot.CSV(append(
		[][]string{{"engine", "rounds", "r_star", "messages", "covered"}}, rows...))
	return out, nil
}

// runAblationArcSamples probes the Algorithm 2 domination check resolution:
// too few circle samples can stop the ring early and mis-shape regions; we
// measure the fraction of nodes whose region area deviates from the
// centralized reference at each resolution.
func runAblationArcSamples(cfg RunConfig) (*Output, error) {
	reg, uniform, err := resolve("square", "uniform")
	if err != nil {
		return nil, err
	}
	n, k := 40, 2
	gamma := 0.25
	samples := []int{16, 32, 64, 128}
	if cfg.Quick {
		n, samples = 25, []int{16, 64}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 920))
	start := uniform(reg, n, rng)

	// Centralized reference regions.
	refCfg := core.DefaultConfig(k)
	refCfg.Seed = cfg.Seed
	refEng, err := core.New(reg, start, refCfg)
	if err != nil {
		return nil, err
	}
	ref := refEng.DebugRegions()

	isBoundary := (boundary.Hull{Tol: gamma * 0.8}).Boundary(refEng.Network())

	out := &Output{
		Name:  "ablation-arcsamples",
		Title: "Algorithm 2 circle-sampling resolution vs region exactness",
		CSV:   map[string]string{},
	}
	rows := [][]string{}
	csv := [][]string{{"arc_samples", "interior_nodes", "mismatched", "messages"}}
	var mismatches []int
	for _, s := range samples {
		c := core.DefaultConfig(k)
		c.Mode = core.Localized
		c.Gamma = gamma
		c.ArcSamples = s
		c.Seed = cfg.Seed
		lEng, err := core.New(reg, start, c)
		if err != nil {
			return nil, err
		}
		regions := lEng.DebugRegions()
		interior, bad := 0, 0
		for i := range regions {
			if isBoundary[i] {
				continue
			}
			interior++
			ra := voronoi.RegionArea(ref[i])
			la := voronoi.RegionArea(regions[i])
			if math.Abs(ra-la) > 1e-6*(1+ra) {
				bad++
			}
		}
		msgs := lEng.Network().MessageCount()
		mismatches = append(mismatches, bad)
		rows = append(rows, []string{fmt.Sprint(s), fmt.Sprint(interior),
			fmt.Sprint(bad), fmt.Sprint(msgs)})
		csv = append(csv, []string{fmt.Sprint(s), fmt.Sprint(interior),
			fmt.Sprint(bad), fmt.Sprint(msgs)})
	}
	last := mismatches[len(mismatches)-1]
	out.Checks = append(out.Checks,
		check("high resolution matches centralized", last == 0, "%d mismatched at max resolution", last),
		check("resolution does not hurt", last <= mismatches[0],
			"mismatches %v across resolutions %v", mismatches, samples))
	out.Text = asciiplot.Table([]string{"arc samples", "interior nodes", "mismatched", "messages"}, rows)
	out.CSV["ablation-arcsamples.csv"] = asciiplot.CSV(csv)
	return out, nil
}

// runAblationGrid probes the coverage-verification grid: the k-coverage
// verdict must be stable across sufficiently fine resolutions.
func runAblationGrid(cfg RunConfig) (*Output, error) {
	reg, _, err := resolve("square", "uniform")
	if err != nil {
		return nil, err
	}
	n, k := 40, 2
	resolutions := []int{20, 40, 80, 160}
	if cfg.Quick {
		n, resolutions = 25, []int{20, 60}
	}
	res, err := deploy(cfg, "square", n, k, 1e-3, 250, cfg.Seed+930)
	if err != nil {
		return nil, err
	}
	out := &Output{
		Name:  "ablation-grid",
		Title: "coverage-grid resolution vs verification verdict",
		CSV:   map[string]string{},
	}
	rows := [][]string{}
	csv := [][]string{{"resolution", "samples", "min_depth", "mean_depth", "covered"}}
	verdicts := map[int]bool{}
	for _, r := range resolutions {
		rep := coverage.VerifyWorkers(res.Positions, res.Radii, reg, r, cfg.Workers)
		verdicts[r] = rep.KCovered(k)
		rows = append(rows, []string{fmt.Sprint(r), fmt.Sprint(rep.Samples),
			fmt.Sprint(rep.MinDepth), f64(rep.MeanDepth), fmt.Sprint(rep.KCovered(k))})
		csv = append(csv, []string{fmt.Sprint(r), fmt.Sprint(rep.Samples),
			fmt.Sprint(rep.MinDepth), f64(rep.MeanDepth), fmt.Sprint(rep.KCovered(k))})
	}
	stable := true
	for _, r := range resolutions[1:] {
		if verdicts[r] != verdicts[resolutions[0]] {
			stable = false
		}
	}
	out.Checks = append(out.Checks,
		check("verdict stable across resolutions", stable, "%v", verdicts),
		check("deployment verified covered", verdicts[resolutions[len(resolutions)-1]],
			"finest grid verdict"))
	out.Text = asciiplot.Table([]string{"resolution", "samples", "min depth", "mean depth", "covered"}, rows)
	out.CSV["ablation-grid.csv"] = asciiplot.CSV(csv)
	return out, nil
}

// runAblationKVor cross-validates and times the two k-order Voronoi
// algorithms: the direct depth-bounded dominating-region computation versus
// the full diagram by iterative refinement.
func runAblationKVor(cfg RunConfig) (*Output, error) {
	reg, uniform, err := resolve("square", "uniform")
	if err != nil {
		return nil, err
	}
	n := 25
	ks := []int{1, 2, 3, 4}
	if cfg.Quick {
		n, ks = 12, []int{1, 2, 3}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 940))
	pts := uniform(reg, n, rng)
	sites := make([]voronoi.Site, n)
	for i, p := range pts {
		sites[i] = voronoi.Site{ID: i, Pos: p}
	}
	out := &Output{
		Name:  "ablation-kvor",
		Title: "direct dominating regions vs iterative-refinement diagram",
		CSV:   map[string]string{},
	}
	rows := [][]string{}
	csv := [][]string{{"k", "direct_ms", "diagram_ms", "max_area_diff"}}
	for _, k := range ks {
		t0 := time.Now()
		direct := make([]float64, n)
		for i, s := range sites {
			direct[i] = voronoi.RegionArea(voronoi.DominatingRegion(s, sites, k, reg.Pieces()))
		}
		directMS := float64(time.Since(t0).Microseconds()) / 1000

		t1 := time.Now()
		d, err := voronoi.KOrderDiagram(sites, k, reg)
		if err != nil {
			return nil, err
		}
		diagMS := float64(time.Since(t1).Microseconds()) / 1000

		var worst float64
		for i := range sites {
			a := voronoi.RegionArea(d.DominatingRegionOf(i))
			if diff := math.Abs(a - direct[i]); diff > worst {
				worst = diff
			}
		}
		rows = append(rows, []string{fmt.Sprint(k), f64(directMS), f64(diagMS), f64(worst)})
		csv = append(csv, []string{fmt.Sprint(k), f64(directMS), f64(diagMS), f64(worst)})
		out.Checks = append(out.Checks,
			check(fmt.Sprintf("k=%d algorithms agree", k), worst < 1e-6,
				"max per-node area difference %g", worst))
	}
	out.Text = asciiplot.Table([]string{"k", "direct (ms)", "diagram (ms)", "max area diff"}, rows)
	out.CSV["ablation-kvor.csv"] = asciiplot.CSV(csv)
	return out, nil
}
