package core

import (
	"math"
	"slices"
)

// Level-scheduled colored Sequential sweeps.
//
// A Sequential (Gauss–Seidel) round processes nodes in ascending ID order,
// each node seeing every earlier node's committed move. That data dependence
// is real but sparse: node j's computation reads only positions inside its
// exactness ball, so two nodes whose balls cannot reach each other's writes
// are independent — the interference structure is a geometric graph, not a
// chain. The colored sweep exploits that by speculation: upcoming dirty
// nodes are computed in parallel from the current committed state and
// installed as speculative cache entries; the serial commit loop then
// proceeds unchanged, consuming an entry only if no committed move endpoint
// has landed inside the entry's exactness ball since it was computed (the
// standard invalidation predicate) and recomputing serially otherwise.
//
// Scheduling is a level schedule over the predicted interference DAG, built
// once per round (planLevelSchedule): every dirty node j gets a trigger —
// one past the largest-ID predicted mover that could disturb it — and the
// (trigger, ID) pairs, packed into int64 keys, are sorted into the round's
// execution queue. As the serial scan passes position i, every queued node
// whose trigger is ≤ i has all its predicted disturbers committed, so the
// ready prefix of the queue forms a wave: pairwise non-interfering under the
// prediction (if mover a < b disturbs b, then trigger(b) > a ≥ i, so b is
// not yet ready) and safe to compute in parallel (speculateAt). Where the
// predecessor heuristic's fixed wave budget made mover-heavy rounds fall
// back to serial after a few probes, the level schedule keeps waves flowing
// layer by layer — a chain of disturbances becomes one wave per Kahn level,
// not one serial turn per node.
//
// Correctness never depends on the interference prediction: a mispredicted
// wave member is just a wasted speculation, dropped by the same machinery
// that drops stale cross-round entries. A Localized speculation's ring
// search only meters its cost into the entry and charges nothing, so waste
// costs nothing (see dropEntry) — the public counters never saw it, and no
// refund exists anywhere in the system. An entry that survives to its node's
// turn is bit-identical to what the serial sweep would compute there —
// every position its search read is unchanged since it ran — so consuming it
// charges its cost at exactly the instant the eager sweep would have: the
// schedule's fixed point, trace and message accounting (including any
// mid-round Stats snapshot) equal the one-worker sweep's exactly, for any
// worker count.

const (
	// waveMinCandidates is the dirty-node count below which planning a
	// schedule is not worth its O(n) gather; the serial loop handles
	// stragglers.
	waveMinCandidates = 8
	// waveCapInit seeds the per-wave width budget. The first wave of a round
	// is a probe: if its speculations survive (the converging tail), the
	// budget quadruples per wave and the sweep reaches full width within a
	// few launches; if they mostly die (the active phase, where nearly every
	// commit invalidates downstream), the waste cutoff stops speculating
	// having wasted at most about this much work.
	waveCapInit = 64
)

// Disturber marks for the interference test. Only a committed move can
// invalidate an entry, so only predicted movers disturb: a dirty node whose
// last outcome stood still is predicted to stand still again and blocks
// nobody (if it moves after all, the validation machinery catches every
// affected speculation — prediction errors cost work, never correctness).
const (
	waveNone       uint8 = iota
	waveDirtyMover       // invalid entry whose stale outcome moved: reach ≈ last move distance
	waveMover            // valid entry with a pending move: endpoints known exactly
)

// planLevelSchedule builds the round's speculation schedule from the dirty
// set: for every dirty node j, the trigger — one past the largest-ID
// predicted mover k < j that could land a move endpoint inside j's predicted
// exactness ball before j's turn — and its Kahn level in the predicted
// interference DAG (counters only; execution is trigger-driven). The packed
// (trigger, ID) keys are sorted into the execution queue for speculateAt.
//
// Disturbers are:
//
//   - a cached mover k whose pending move endpoints are known exactly:
//     interferes when either endpoint lies within j's hint ball;
//   - a dirty node k whose stale outcome moved: its recomputation is
//     predicted to move about as far again, so it interferes when u_k is
//     within j's hint ball inflated by that distance.
//
// Dirty nodes whose stale outcome stood still are predicted to stand still
// and block nobody — in the converging tail most of the dirty set is nodes
// invalidated by a neighbor's move that will recompute to the same fixed
// point, and they must be allowed to share a wave or every cluster would
// serialize. Hints are the nodes' last known exactness radii (cache[j].rho,
// kept across invalidations); nodes never computed yet fall back to the
// search's initial radius. Stale outcomes are read from outs, which no wave
// has touched yet: planning precedes the round's first wave. The plan runs
// on the coordinator in one ascending-ID pass (each node's level needs its
// dirty predecessors' levels) and is a pure function of (positions,
// outcomes, cache state, hints), so the schedule — and with it the whole
// sweep — is deterministic for every worker count.
func (e *Engine) planLevelSchedule(workers int) {
	e.schedKeys = e.schedKeys[:0]
	e.schedPos = 0
	e.schedWidthCap = max(waveCapInit, 8*workers)
	n := len(e.cache)
	cands := e.waveCands[:0]
	for j := 0; j < n; j++ {
		if !e.cache[j].valid {
			cands = append(cands, j)
		}
	}
	e.waveCands = cands
	if len(cands) < waveMinCandidates {
		return
	}
	if cap(e.waveMark) < n {
		e.waveMark = make([]uint8, n)
	}
	mark := e.waveMark[:n]
	fallback := e.hintFallback()
	maxReach, maxHint := 0.0, 0.0
	for j := 0; j < n; j++ {
		valid := e.cache[j].valid
		if !valid {
			if h := e.hintOf(j, fallback); h > maxHint {
				maxHint = h
			}
		}
		if o := &e.outs[j]; o.moved {
			if valid {
				mark[j] = waveMover
			} else {
				mark[j] = waveDirtyMover
			}
			if o.moveDist > maxReach {
				maxReach = o.moveDist
			}
		} else {
			mark[j] = waveNone
		}
	}
	// Density guard: each candidate's trigger scan covers a grid window of
	// radius hint+maxReach. When that window covers a constant fraction of
	// the network (large stale moves over a crowded deployment), planning
	// costs approach O(candidates × n) — worse than just computing serially.
	// Estimated occupancy-scaled scan size per query, vs the network:
	shape := e.net.GridShape()
	if ncells := shape.NX * shape.NY; ncells > 0 {
		scanned := e.net.CellWindowSize(maxHint+maxReach) * n / ncells
		if scanned*4 >= n {
			for j := 0; j < n; j++ {
				mark[j] = waveNone
			}
			return
		}
	}
	if cap(e.schedLevel) < n {
		e.schedLevel = make([]int32, n)
	}
	level := e.schedLevel[:n]
	e.net.Rebuild()
	s := e.pool[0]
	var maxLevel int32
	for _, j := range cands {
		hintJ := e.hintOf(j, fallback)
		s.nbrs = e.net.NeighborsWithinBuf(j, hintJ+maxReach, s.nbrs)
		trig := 0
		var lvl int32
		for _, k := range s.nbrs {
			if k >= j || !e.interferes(k, j, hintJ, fallback) {
				continue
			}
			if k+1 > trig {
				trig = k + 1
			}
			switch mark[k] {
			case waveDirtyMover:
				// k is a candidate with a smaller ID, so level[k] is
				// already this round's value.
				if lk := level[k] + 1; lk > lvl {
					lvl = lk
				}
			case waveMover:
				// Commits at its own turn from the cache: depth 1, no
				// recomputation chain behind it.
				if lvl < 1 {
					lvl = 1
				}
			}
		}
		level[j] = lvl
		if lvl > maxLevel {
			maxLevel = lvl
		}
		e.schedKeys = append(e.schedKeys, int64(trig)<<32|int64(j))
	}
	slices.Sort(e.schedKeys)
	e.counters.Levels += uint64(maxLevel) + 1
	if e.schedHook != nil {
		// Observe the plan while the disturber marks are still live, so a
		// test can re-evaluate the interference predicate over its members.
		e.schedHook(e.schedKeys)
	}
	for j := 0; j < n; j++ {
		mark[j] = waveNone
	}
	e.schedOn = true
}

// speculateAt pops and executes the wave that is ready at scan position i:
// the queue prefix whose triggers the scan has passed, truncated to the
// adaptive width cap. Runs only inside a Sequential sweep with the cache
// enabled, workers > 1 and a live schedule (schedOn); multi-member waves
// fan out over the state's open worker team.
//
// Pairwise independence of the popped wave holds by construction: for wave
// members a < b, a predicted disturbance of b by a implies trigger(b) ≥ a+1,
// and a being popped at scan i implies a ≥ i (stale entries are discarded),
// so trigger(b) > i and b stays queued. Entries the scan has passed (id < i,
// recomputed serially at their turn) and entries somehow already valid are
// dropped on pop — speculating them could overwrite committed state.
func (e *Engine) speculateAt(i, round int) {
	if e.schedPos >= len(e.schedKeys) || int(e.schedKeys[e.schedPos]>>32) > i {
		return
	}
	// Adaptive budget: when this round's committed moves have already killed
	// more than half of what the waves computed (nearly everything moving
	// unpredictably — genuinely serial), further speculation is mostly
	// wasted work: stop for the rest of the sweep. While speculations
	// survive, the width budget escalates instead, so surviving rounds reach
	// full width. The counters are maintained on the serial path, so either
	// decision is a pure function of the trajectory and the schedule stays
	// deterministic.
	computed := e.counters.SpecComputed - e.waveBaseComputed
	wasted := e.counters.SpecWasted - e.waveBaseWasted
	if computed > 0 {
		if wasted*2 > computed {
			e.schedOn = false
			return
		}
		if wasted*4 <= computed && e.schedWidthCap < len(e.cache) {
			e.schedWidthCap *= 4
		}
	}
	sel := e.waveSel[:0]
	for e.schedPos < len(e.schedKeys) && len(sel) < e.schedWidthCap {
		key := e.schedKeys[e.schedPos]
		if int(key>>32) > i {
			break
		}
		e.schedPos++
		j := int(key & 0xffffffff)
		if j < i || e.cache[j].valid {
			continue
		}
		sel = append(sel, j)
	}
	e.waveSel = sel
	if len(sel) == 0 {
		return
	}
	e.counters.Waves++
	e.counters.BatchSizeHist[batchSizeBucket(len(sel))]++
	if w := uint64(len(sel)); w > e.counters.LevelWidthMax {
		e.counters.LevelWidthMax = w
	}
	if e.waveHook != nil {
		e.waveHook(i, sel)
	}
	if len(sel) == 1 {
		e.computeEntry(sel[0], round, e.pool[0], true)
	} else {
		e.net.Rebuild() // fan-out reads the index concurrently; build it once
		if e.waveFn == nil {
			e.waveFn = func(w, idx int) {
				e.computeEntry(e.waveSel[idx], e.waveRound, e.pool[w], true)
			}
		}
		e.waveRound = round
		e.team.Run(len(sel), e.waveFn)
	}
	e.counters.SpecComputed += uint64(len(sel))
	// The live per-cell ρ-bounds must upper-bound every valid entry or
	// later inverse invalidation queries could miss a speculative one.
	e.noteRhoBounds(sel)
}

// interferes is the pairwise interference predicate: can disturber k's
// activity this sweep plausibly land inside candidate j's predicted
// exactness ball? Mispredictions in either direction are safe — a false
// positive only delays j's trigger, a false negative only wastes the
// speculation — so the test can use hints instead of true radii.
func (e *Engine) interferes(k, j int, hintJ, fallback float64) bool {
	uj := e.net.Position(j)
	switch e.waveMark[k] {
	case waveDirtyMover:
		reach := hintJ + e.outs[k].moveDist
		return e.net.Position(k).Dist2(uj) <= reach*reach
	case waveMover:
		return e.net.Position(k).Dist2(uj) <= hintJ*hintJ ||
			e.outs[k].next.Dist2(uj) <= hintJ*hintJ
	}
	return false
}

// hintOf returns node j's predicted exactness radius.
func (e *Engine) hintOf(j int, fallback float64) float64 {
	if h := e.cache[j].rho; h > 0 {
		return h
	}
	return fallback
}

// hintFallback is the predicted radius for nodes that have never been
// computed: the expanding search's own initial radius (Centralized) or the
// first ring (Localized).
func (e *Engine) hintFallback() float64 {
	if e.cfg.Mode == Localized {
		return e.cfg.Gamma
	}
	n := e.net.Len()
	if n == 0 {
		return 0
	}
	return e.reg.BBox().Diagonal() / math.Sqrt(float64(n)) * math.Sqrt(float64(4*e.cfg.K+4))
}
