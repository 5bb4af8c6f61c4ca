package experiments

import (
	"reflect"
	"testing"

	"spottune/internal/campaign"
	"spottune/internal/policy"
)

// TestCrossPolicyStudy is the acceptance test for the policy comparison
// harness: every registered policy (≥ 6) runs on one Table II workload
// through campaign.Sweep, produces a comparable cost/JCT row, and the whole
// study replays bit-identically under a fixed seed.
func TestCrossPolicyStudy(t *testing.T) {
	ctx := quickCtx()
	rows, recs, err := CrossPolicy(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if recs != nil {
		t.Errorf("untraced study returned %d recordings", len(recs))
	}
	if len(rows) < 6 {
		t.Fatalf("only %d policies in the study: %+v", len(rows), rows)
	}
	byName := make(map[string]campaign.PolicyRow, len(rows))
	for _, r := range rows {
		byName[r.Policy] = r
		if r.Workload != "LoR" {
			t.Errorf("%s: workload %q", r.Policy, r.Workload)
		}
		if r.Cost <= 0 || r.JCTHours <= 0 {
			t.Errorf("%s: degenerate cost/JCT %v/%v", r.Policy, r.Cost, r.JCTHours)
		}
		if r.Report == nil || r.Report.Best == "" {
			t.Errorf("%s: no selection", r.Policy)
		}
	}
	for _, want := range []string{
		policy.SpotTuneName, policy.CheapestName, policy.FastestName,
		policy.OnDemandName, policy.FallbackName, policy.MixedFleetName,
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("policy %q missing from the study", want)
		}
	}
	// The pure on-demand policy must never touch the spot market; the
	// spot-only policies must never rent on-demand.
	if od := byName[policy.OnDemandName]; od.OnDemandDeployments != od.Deployments || od.Notices != 0 {
		t.Errorf("on-demand row saw spot activity: %+v", od)
	}
	for _, name := range []string{policy.SpotTuneName, policy.CheapestName, policy.FastestName} {
		if r := byName[name]; r.OnDemandDeployments != 0 {
			t.Errorf("%s rented on-demand capacity: %+v", name, r)
		}
	}

	// Deterministic replay of the whole fanned-out study, with the flight
	// recorder on: tracing is observational, so the rows must not move, and
	// each recording belongs to its row's policy.
	rows2, recs, err := CrossPolicy(quickCtx(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, rows2) {
		t.Error("cross-policy study is not deterministic under a fixed seed (traced replay)")
	}
	if len(recs) != len(rows) {
		t.Fatalf("%d recordings for %d rows", len(recs), len(rows))
	}
	for i, rec := range recs {
		if rec == nil || rec.Meta.Policy != rows[i].Policy {
			t.Errorf("row %d (%s): recording %+v", i, rows[i].Policy, rec)
		}
	}
}

// TestCrossPolicySpotTuneMatchesRunSpotTune: the study's spottune row must
// be the same campaign RunSpotTune reports — one comparison harness, no
// second code path.
func TestCrossPolicySpotTuneMatchesRunSpotTune(t *testing.T) {
	ctx := quickCtx()
	rows, _, err := CrossPolicy(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	env, bench, curves, err := ctx.study()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := env.RunSpotTune(bench, curves, campaign.Options{Theta: 0.7, Seed: ctx.Opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Policy == policy.SpotTuneName {
			if !reflect.DeepEqual(r.Report, rep) {
				t.Errorf("study spottune row diverges from RunSpotTune:\n%+v\nvs\n%+v", r.Report, rep)
			}
			return
		}
	}
	t.Fatal("spottune row missing")
}
