package scenario

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"spottune/internal/golden"
	"spottune/internal/policy"
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
