package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/search"
	"spottune/internal/trial"
)

// SingleSpotConfig tunes the Single-Spot Tune baseline of §IV-A4: all trials
// run to full max_trial_steps, one at a time, on one spot instance whose
// maximum price is set so high it is effectively never revoked.
type SingleSpotConfig struct {
	// TypeName is the instance to rent ("r4.large" for the Cheapest
	// baseline, "m4.4xlarge" for the Fastest).
	TypeName string
	// MaxPriceFactor multiplies the on-demand price to form the maximum
	// price (default 1000 — the paper assumes no preemption).
	MaxPriceFactor float64
	// ChunkInterval is the virtual-time slice per advance (default 10m).
	ChunkInterval time.Duration
}

func (c SingleSpotConfig) withDefaults() SingleSpotConfig {
	if c.MaxPriceFactor <= 0 {
		c.MaxPriceFactor = 1000
	}
	if c.ChunkInterval <= 0 {
		c.ChunkInterval = 10 * time.Minute
	}
	return c
}

// RunSingleSpot executes the baseline campaign and returns its report.
//
// This is the legacy §IV-A4 loop, kept as the reference implementation the
// baselines-as-policies golden tests compare against: the same strategies
// run through the shared orchestrator as the "cheapest-spot" and
// "fastest-spot" policies, which inherit its full trial accounting
// (startup delays, checkpoints, per-segment throughput observations)
// instead of re-implementing a parallel campaign loop here.
func RunSingleSpot(cluster *cloudsim.Cluster, trials []*trial.Replay, cfg SingleSpotConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(trials) == 0 {
		return nil, errors.New("core: no trials submitted")
	}
	it, ok := cluster.Catalog().Lookup(cfg.TypeName)
	if !ok {
		return nil, fmt.Errorf("core: unknown baseline instance type %q", cfg.TypeName)
	}
	clk := cluster.Clock()
	start := clk.Now()

	inst, err := cluster.RequestSpot(cfg.TypeName, it.OnDemandPrice*cfg.MaxPriceFactor, nil)
	if err != nil {
		return nil, fmt.Errorf("core: baseline request for %s: %w", cfg.TypeName, err)
	}
	totalSteps := 0
	for _, tr := range trials {
		for tr.CompletedSteps() < tr.MaxSteps() {
			if !inst.Running() {
				return nil, fmt.Errorf("core: baseline instance %s was revoked despite max price factor %v",
					inst.ID, cfg.MaxPriceFactor)
			}
			secs := cfg.ChunkInterval.Seconds()
			steps, used := tr.RunFor(inst.Type, secs, tr.MaxSteps())
			totalSteps += steps
			if used < secs {
				// Trial finished mid-chunk; only bill the used time.
				clk.Sleep(time.Duration(used * float64(time.Second)))
				break
			}
			clk.Sleep(cfg.ChunkInterval)
		}
	}
	if err := cluster.Terminate(inst.ID); err != nil {
		return nil, err
	}

	// θ=1 semantics: the observed finals are the predictions.
	finals := make(map[string]float64, len(trials))
	for _, tr := range trials {
		pts := tr.Points()
		if len(pts) == 0 {
			return nil, fmt.Errorf("core: baseline trial %s produced no metrics", tr.ID())
		}
		finals[tr.ID()] = pts[len(pts)-1].Value
	}
	ranked := search.RankByValue(finals)
	best := ranked[0]

	led := cluster.Ledger()
	return &Report{
		Approach:        fmt.Sprintf("SingleSpot(%s)", cfg.TypeName),
		Theta:           1.0,
		JCT:             clk.Now().Sub(start),
		GrossCost:       led.TotalGross(),
		Refund:          led.TotalRefunded(),
		NetCost:         led.TotalNet(),
		TotalSteps:      totalSteps,
		FreeSteps:       0,
		Deployments:     1,
		PredictedFinals: finals,
		Ranked:          ranked,
		Top:             ranked[:minInt(3, len(ranked))],
		Best:            best,
	}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TrueBest returns the trial ID with the lowest ground-truth final metric —
// the reference for Fig. 8c accuracy.
func TrueBest(trials []*trial.Replay) (string, float64) {
	best, val := "", math.Inf(1)
	for _, tr := range trials {
		if f := tr.TrueFinal(); f < val {
			best, val = tr.ID(), f
		}
	}
	return best, val
}

// TrueFinals maps every trial to its ground-truth final metric.
func TrueFinals(trials []*trial.Replay) map[string]float64 {
	out := make(map[string]float64, len(trials))
	for _, tr := range trials {
		out[tr.ID()] = tr.TrueFinal()
	}
	return out
}
