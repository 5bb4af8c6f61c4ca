package experiments

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"spottune/internal/golden"
)

// TestGoldenCrossStudies pins the campaign.Sweep-driven cross-policy and
// cross-tuner studies under quickCtx to testdata/cross.golden: one line per
// row, floats as Float64bits, so a refactor of the sweep pool or the campaign
// wiring that moves a single bit fails here.
func TestGoldenCrossStudies(t *testing.T) {
	ctx := quickCtx()
	prows, _, err := CrossPolicy(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	trows, err := CrossTuner(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# policy workload cost jct_hours refund_frac deployments on_demand notices best")
	for _, r := range prows {
		fmt.Fprintf(&buf, "policy %s %s %016x %016x %016x %d %d %d %s\n",
			r.Policy, r.Workload,
			math.Float64bits(r.Cost), math.Float64bits(r.JCTHours), math.Float64bits(r.RefundFrac),
			r.Deployments, r.OnDemandDeployments, r.Notices, r.Report.Best)
	}
	fmt.Fprintln(&buf, "# tuner policy workload cost jct_hours refund_frac deployments notices revocations best")
	for _, r := range trows {
		fmt.Fprintf(&buf, "tuner %s %s %s %016x %016x %016x %d %d %d %s\n",
			r.Tuner, r.Policy, r.Workload,
			math.Float64bits(r.Cost), math.Float64bits(r.JCTHours), math.Float64bits(r.RefundFrac),
			r.Deployments, r.Notices, r.Revocations, r.Best)
	}
	golden.Check(t, "cross.golden", buf.Bytes())
}
