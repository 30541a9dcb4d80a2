// Localized: run the fully distributed LAACAD (Algorithm 2 of the paper) —
// every node discovers its neighborhood with an expanding-ring search over
// the multi-hop WSN, pays real message costs, and still converges to the
// same load-balanced k-coverage as the centralized ideal.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"laacad"
)

func main() {
	reg := laacad.UnitSquareKm()
	rng := rand.New(rand.NewSource(5))
	start := laacad.PlaceUniform(reg, 60, rng)

	run := func(mode laacad.Mode) *laacad.Result {
		cfg := laacad.DefaultConfig(2)
		cfg.Mode = mode
		cfg.Gamma = 0.22 // transmission range γ (km)
		cfg.Epsilon = 2e-3
		cfg.MaxRounds = 200
		eng, err := laacad.NewEngine(reg, start, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	central := run(laacad.Centralized)
	local := run(laacad.Localized)

	fmt.Printf("%-12s %8s %10s %12s %10s\n", "engine", "rounds", "R* (km)", "messages", "covered")
	for _, row := range []struct {
		name string
		res  *laacad.Result
	}{{"centralized", central}, {"localized", local}} {
		rep := laacad.VerifyCoverage(row.res.Positions, row.res.Radii, reg, 80)
		fmt.Printf("%-12s %8d %10.4f %12d %10v\n",
			row.name, row.res.Rounds, row.res.MaxRadius(), row.res.Messages, rep.KCovered(2))
	}

	fmt.Println("\nconvergence trace (localized):")
	fmt.Print(laacad.RenderConvergence(local, 64, 14))
}
