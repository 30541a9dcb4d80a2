package core

import (
	"context"
	"testing"

	"laacad/internal/coverage"
	"laacad/internal/region"
)

func TestConfigRejectsBadLossRate(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(1)
	cfg.Mode = Localized
	cfg.Gamma = 0.3
	cfg.LossRate = 1.0
	if _, err := New(reg, uniformStart(5, 1), cfg); err == nil {
		t.Error("LossRate = 1 should be rejected")
	}
	cfg.LossRate = -0.1
	if _, err := New(reg, uniformStart(5, 1), cfg); err == nil {
		t.Error("negative LossRate should be rejected")
	}
}

// Message loss enlarges (never shrinks) the regions a node computes, so the
// deployment still converges and still k-covers — it just pays more
// messages and may balance slightly worse.
func TestLocalizedWithMessageLossStillCovers(t *testing.T) {
	reg := region.UnitSquareKm()
	cfg := DefaultConfig(2)
	cfg.Mode = Localized
	cfg.Gamma = 0.3
	cfg.Epsilon = 3e-3
	cfg.MaxRounds = 200
	cfg.LossRate = 0.2
	cfg.LossRetries = 3
	cfg.Seed = 77
	eng, err := New(reg, uniformStart(30, 61), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := coverage.Verify(res.Positions, res.Radii, reg, 50)
	if !rep.KCovered(2) {
		t.Errorf("lossy deployment not 2-covered: %v (worst %v)", rep, rep.WorstPoint)
	}
	if res.Messages == 0 {
		t.Error("no messages accounted")
	}
}

// At equal seeds, a lossy run must send at least as many messages per round
// as a clean one (retries cost extra).
func TestLossCostsMessages(t *testing.T) {
	reg := region.UnitSquareKm()
	run := func(loss float64) int64 {
		cfg := DefaultConfig(1)
		cfg.Mode = Localized
		cfg.Gamma = 0.35
		cfg.LossRate = loss
		cfg.LossRetries = 4
		cfg.Seed = 5
		eng, err := New(reg, uniformStart(20, 63), cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.Step()
		return eng.Network().MessageCount()
	}
	clean := run(0)
	lossy := run(0.3)
	if lossy <= clean {
		t.Errorf("lossy round should cost more: %d vs %d", lossy, clean)
	}
}
