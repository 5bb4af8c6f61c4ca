package experiments

import (
	"fmt"
	"sync"

	"spottune/internal/campaign"
	"spottune/internal/obs"
	"spottune/internal/policy"
)

// CrossPolicy runs every registered provisioning policy (SpotTune, the
// Single-Spot baselines, on-demand only, spot-with-on-demand-fallback, and
// the DeepVM-style mixed fleet) on one Table II workload — the first of
// Options.Workloads — at θ=0.7, fanned out through the campaign.Sweep
// worker pool. Rows come back in registry-name order; everything is
// deterministic given the seed.
//
// With trace set the flight recorder is on and the returned recordings
// parallel the rows (recs[i] is rows[i]'s campaign trace); otherwise recs is
// nil. Tracing is purely observational, so the rows are identical either
// way. The collection map is mutex-guarded because the sweep pool calls
// Inspect from worker goroutines; the returned order is row order, so
// output stays deterministic regardless of scheduling.
func CrossPolicy(ctx *Context, trace bool) (rows []campaign.PolicyRow, recs []*obs.Recording, err error) {
	env, bench, curves, err := ctx.study()
	if err != nil {
		return nil, nil, err
	}
	opt := campaign.Options{Theta: 0.7, Seed: ctx.Opts.Seed}
	var mu sync.Mutex
	byPolicy := map[string]*obs.Recording{}
	if trace {
		opt.Trace = true
		opt.Inspect = func(d *campaign.RunDetail) error {
			if d.Trace != nil {
				mu.Lock()
				byPolicy[d.Trace.Meta.Policy] = d.Trace
				mu.Unlock()
			}
			return nil
		}
	}
	names := policy.Names()
	opts := make([]campaign.Options, len(names))
	for i, name := range names {
		opts[i] = opt
		opts[i].Policy = name
	}
	results := campaign.Sweep(env.Tasks(bench, curves, names, opts), campaign.SweepOptions{Seed: opt.Seed})
	for i, res := range results {
		if res.Err != nil {
			return nil, nil, fmt.Errorf("experiments: policy %s: %w", res.Key, res.Err)
		}
		rows = append(rows, campaign.NewPolicyRow(names[i], bench.Name, res.Report))
	}
	if !trace {
		return rows, nil, nil
	}
	recs = make([]*obs.Recording, len(rows))
	for i, r := range rows {
		recs[i] = byPolicy[r.Policy]
	}
	return rows, recs, nil
}
