package experiments

import (
	"fmt"

	"spottune/internal/campaign"
	"spottune/internal/core"
	"spottune/internal/policy"
	"spottune/internal/search"
)

// CrossTunerRow is one search strategy's campaign outcome on the study
// workload — the cost/JCT comparison the tuner engine exists for. Policy,
// markets, and trials are shared across rows, so differences measure the
// trial-lifecycle schedule alone.
type CrossTunerRow struct {
	Tuner       string
	Policy      string
	Workload    string
	Cost        float64
	JCTHours    float64
	RefundFrac  float64
	Deployments int
	Notices     int
	Revocations int
	Best        string
	Report      *core.Report
}

// CrossTuner runs every registered tuner (the paper's spottune schedule,
// successive halving, hyperband, and the full-train cost ceiling) on one
// Table II workload — the first of Options.Workloads — under the spottune
// provisioning policy at θ=0.7, fanned out through the campaign.Sweep
// worker pool. Rows come back in registry-name order; everything is
// deterministic given the seed.
func CrossTuner(ctx *Context) ([]CrossTunerRow, error) {
	env, bench, curves, err := ctx.study()
	if err != nil {
		return nil, err
	}
	names := search.Names()
	opts := make([]campaign.Options, len(names))
	for i, name := range names {
		opts[i] = campaign.Options{Theta: 0.7, Seed: ctx.Opts.Seed, Tuner: name}
	}
	results := campaign.Sweep(env.Tasks(bench, curves, names, opts), campaign.SweepOptions{Seed: ctx.Opts.Seed})
	rows := make([]CrossTunerRow, 0, len(results))
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("experiments: tuner %s: %w", res.Key, res.Err)
		}
		rep := res.Report
		rows = append(rows, CrossTunerRow{
			Tuner:       names[i],
			Policy:      policy.SpotTuneName,
			Workload:    bench.Name,
			Cost:        rep.NetCost,
			JCTHours:    rep.JCT.Hours(),
			RefundFrac:  rep.RefundFraction(),
			Deployments: rep.Deployments,
			Notices:     rep.Notices,
			Revocations: rep.Revocations,
			Best:        rep.Best,
			Report:      rep,
		})
	}
	return rows, nil
}
