package service

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"spottune/internal/golden"
	"spottune/internal/obs"
)

// TestGoldenContendedService pins a 96-tenant contended battery to
// testdata/: every delivered Result (identity, placement, admission, the
// economics as Float64bits), the summary, and the service trace's JSONL
// bytes, once per admission policy. Budgets cycle around the cap so a third
// of the battery is rejected, which interleaves rejections with wave results
// in the delivery order. Any change to scheduling, admission, shard
// placement, delivery order or the per-tenant caches that moves a bit fails
// here.
func TestGoldenContendedService(t *testing.T) {
	env, bench, curves := testWorld(t)
	const maxBudget = 10
	tenants := DefaultBattery(96, 11)
	for i := range tenants {
		tenants[i].Budget = maxBudget * []float64{0.5, 0.9, 1.5}[i%3]
	}
	for _, admission := range AdmissionNames() {
		t.Run(admission, func(t *testing.T) {
			var buf bytes.Buffer
			fmt.Fprintln(&buf, "# id index shard wave admitted reason net gross refund jct steps deployments best violations")
			sum, err := Run(env, bench, curves, tenants, Config{
				Shards: 4, MaxInFlight: 4, Admission: admission,
				MaxBudget:  maxBudget,
				Contention: true, Capacity: 2, SurgeSlope: 0.5,
				Trace: true,
				OnResult: func(r Result) {
					fmt.Fprintf(&buf, "%s %d %d %d %t %q", r.Tenant.ID, r.Index, r.Shard, r.Wave, r.Admitted, r.Reason)
					if rep := r.Report; rep != nil {
						fmt.Fprintf(&buf, " %016x %016x %016x %d %d %d %s",
							math.Float64bits(rep.NetCost), math.Float64bits(rep.GrossCost), math.Float64bits(rep.Refund),
							int64(rep.JCT), rep.TotalSteps, rep.Deployments, rep.Best)
					}
					if r.Err != nil {
						fmt.Fprintf(&buf, " err=%q", r.Err)
					}
					fmt.Fprintf(&buf, " %d\n", len(r.Violations))
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "# tenants admitted rejected failed violations waves capacity total_cost cost_gini\n")
			fmt.Fprintf(&buf, "summary %d %d %d %d %d %d %d %016x %016x\n",
				sum.Tenants, sum.Admitted, sum.Rejected, sum.Failed, sum.Violations,
				sum.Waves, len(sum.Capacity), math.Float64bits(sum.TotalCost), math.Float64bits(sum.CostGini))
			golden.Check(t, "service-"+admission+".golden", buf.Bytes())

			var trace bytes.Buffer
			if err := obs.WriteTrace(&trace, "jsonl", sum.Trace); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, "service-"+admission+".jsonl", trace.Bytes())
		})
	}
}
