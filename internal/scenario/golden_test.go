package scenario

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"spottune/internal/golden"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/search"
)

// TestGoldenQuickBattery pins the per-cell economics of the full quick
// battery — every default scenario × every registered tuner × every
// registered policy at seed 1 — to testdata/battery.golden. Floats are
// recorded as Float64bits, so any refactor of the matrix runner, the
// campaign wiring or the policies that moves a single bit fails here.
func TestGoldenQuickBattery(t *testing.T) {
	res, err := Matrix{Specs: DefaultSpecs()}.Run(Options{
		Seed:     1,
		Quick:    true,
		Tuners:   search.Names(),
		Policies: policy.Names(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# scenario regime tuner policy cost jct_hours refund_frac deployments on_demand notices revocations best violations")
	for _, c := range res.Cells {
		fmt.Fprintf(&buf, "%s %s %s %s %016x %016x %016x %d %d %d %d %s %d\n",
			c.Scenario, c.Regime, c.Tuner, c.Policy,
			math.Float64bits(c.Cost), math.Float64bits(c.JCTHours), math.Float64bits(c.RefundFrac),
			c.Deployments, c.OnDemandDeployments, c.Notices, c.Report.Revocations,
			c.Report.Best, len(c.Violations))
	}
	golden.Check(t, "battery.golden", buf.Bytes())
}

// TestGoldenStormBattery pins the chaos battery — every storm spec at seed 1
// × every registered tuner × every recovery strategy × every registered
// policy — to testdata/storm.golden. Storm specs are the only ones with a
// deadline, so this is the golden that exercises the slack projection and
// the degradation ladder, plus the blackout retry and give-up paths.
func TestGoldenStormBattery(t *testing.T) {
	specs, err := StormSpecs(StormAll, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Matrix{Specs: specs}.Run(Options{
		Seed:       1,
		Quick:      true,
		Tuners:     search.Names(),
		Strategies: resilience.Names(),
		Policies:   policy.Names(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# scenario tuner strategy policy cost jct_hours refund deployments on_demand notices revocations best violations level transitions lost_steps migrations gave_up blackout_retries")
	for _, c := range res.Cells {
		r := c.Report
		retries := 0
		for _, n := range r.BlackoutRetries {
			retries += n
		}
		fmt.Fprintf(&buf, "%s %s %s %s %016x %016x %016x %d %d %d %d %s %d %d %d %d %d %d %d\n",
			c.Scenario, c.Tuner, c.Strategy, c.Policy,
			math.Float64bits(c.Cost), math.Float64bits(c.JCTHours), math.Float64bits(r.Refund),
			c.Deployments, c.OnDemandDeployments, c.Notices, r.Revocations,
			r.Best, len(c.Violations),
			r.DegradationLevel, r.DegradationTransitions, r.LostSteps, r.Migrations,
			len(r.GaveUp), retries)
	}
	golden.Check(t, "storm.golden", buf.Bytes())
}
