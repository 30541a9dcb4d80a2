// Obstacles: reproduce the paper's Fig. 8 scenario — autonomous deployment
// into an irregular area containing obstacles that mobile nodes cannot move
// onto, starting from a corner pile, for several coverage orders.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"laacad"
)

func main() {
	// A 1×1 area with two obstacles: a circular one and a rectangular one.
	reg := laacad.SquareWithTwoObstacles()
	fmt.Printf("region area: %.4f (obstacles excluded)\n\n", reg.Area())

	rng := rand.New(rand.NewSource(7))
	start := laacad.PlaceCorner(reg, 120, 0.15, rng)

	for _, k := range []int{2, 4} {
		cfg := laacad.DefaultConfig(k)
		cfg.MaxRounds = 250
		eng, err := laacad.NewEngine(reg, start, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		rep := laacad.VerifyCoverage(res.Positions, res.Radii, reg, 90)

		// No node may end up inside an obstacle.
		inside := 0
		for _, p := range res.Positions {
			if !reg.Contains(p) {
				inside++
			}
		}
		fmt.Printf("k=%d: rounds=%d R*=%.4f %d-covered=%v nodes-in-obstacles=%d\n",
			k, res.Rounds, res.MaxRadius(), k, rep.KCovered(k), inside)
		fmt.Print(laacad.RenderDeployment(reg, res.Positions, 56, 20))
		fmt.Println()
	}
}
