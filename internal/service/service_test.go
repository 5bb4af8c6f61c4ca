package service

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/core"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/workload"
)

// testWorld builds the small shared fixture: a 5-day calm market with a
// constant predictor and quick synthetic curves.
func testWorld(t testing.TB) (*campaign.Environment, *workload.Benchmark, workload.Curves) {
	t.Helper()
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: 11, Days: 5, TrainDays: 2, Predictor: campaign.PredictorConstant,
	})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 11, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	return env, bench, bench.SyntheticCurves(11)
}

// runService runs a battery collecting every result, failing the test on a
// service-level error.
func runService(t *testing.T, env *campaign.Environment, bench *workload.Benchmark, curves workload.Curves, tenants []Tenant, cfg Config) (*Summary, []Result) {
	t.Helper()
	var got []Result
	cfg.OnResult = func(r Result) { got = append(got, r) }
	sum, err := Run(env, bench, curves, tenants, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sum, got
}

// reportKey reduces a report to the economics the metamorphic pin compares
// bit-for-bit: cost decomposition, completion time, work, and selection.
func reportKey(r *core.Report) string {
	return fmt.Sprintf("%x/%x/%x/%v/%d/%d/%s",
		r.NetCost, r.GrossCost, r.Refund, r.JCT, r.TotalSteps, r.Deployments, r.Best)
}

// TestServiceMatchesSoloCampaigns is the metamorphic pin: with contention
// disabled, every tenant's economics are bit-identical across shard counts
// {1, 4, 8} and to legacy solo campaign.Sweep execution — sharing a clock
// changes scheduling, never results.
func TestServiceMatchesSoloCampaigns(t *testing.T) {
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(8, 11)

	solo := make([]string, len(tenants))
	for i, ten := range tenants {
		rep, err := env.RunPolicy(bench, curves, campaign.Options{Theta: ten.Theta, Seed: ten.Seed})
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = reportKey(rep)
	}

	for _, shards := range []int{1, 4, 8} {
		sum, got := runService(t, env, bench, curves, tenants,
			Config{Shards: shards, MaxInFlight: 3})
		if sum.Admitted != len(tenants) || sum.Rejected != 0 || sum.Failed != 0 {
			t.Fatalf("shards=%d: summary %+v", shards, sum)
		}
		if len(got) != len(tenants) {
			t.Fatalf("shards=%d: %d results, want %d", shards, len(got), len(tenants))
		}
		for i, r := range got {
			if r.Index != i {
				t.Fatalf("shards=%d: results out of submission order at %d: %+v", shards, i, r)
			}
			if r.Err != nil {
				t.Fatalf("shards=%d tenant %s: %v", shards, r.Tenant.ID, r.Err)
			}
			if len(r.Violations) != 0 {
				t.Fatalf("shards=%d tenant %s: violations %v", shards, r.Tenant.ID, r.Violations)
			}
			if key := reportKey(r.Report); key != solo[i] {
				t.Errorf("shards=%d tenant %s diverged from solo run:\n service %s\n solo    %s",
					shards, r.Tenant.ID, key, solo[i])
			}
		}
	}
}

// TestServiceMatchesSweep pins the service against the legacy worker-pool
// path too: campaign.Sweep over the same options produces the same reports.
func TestServiceMatchesSweep(t *testing.T) {
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(4, 23)

	tasks := make([]campaign.Task, len(tenants))
	for i, ten := range tenants {
		opt := campaign.Options{Theta: ten.Theta, Seed: ten.Seed}
		tasks[i] = campaign.Task{Key: ten.ID, Run: func(*rand.Rand) (*core.Report, error) {
			return env.RunPolicy(bench, curves, opt)
		}}
	}
	res := campaign.Sweep(tasks, campaign.SweepOptions{Workers: 2, Seed: 23})
	if err := campaign.FirstErr(res); err != nil {
		t.Fatal(err)
	}
	_, got := runService(t, env, bench, curves, tenants, Config{Shards: 2, MaxInFlight: 2})
	for i := range tenants {
		if a, b := reportKey(res[i].Report), reportKey(got[i].Report); a != b {
			t.Errorf("tenant %s: sweep %s vs service %s", tenants[i].ID, a, b)
		}
	}
}

// TestServiceContention pins the coupled mode: the capacity audit stays
// clean (enforcement never leaks), campaigns still complete, and demand
// pressure makes the contended region at least as expensive as the free one.
func TestServiceContention(t *testing.T) {
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(6, 31)

	free, _ := runService(t, env, bench, curves, tenants, Config{Shards: 1, MaxInFlight: 6})
	sum, got := runService(t, env, bench, curves, tenants, Config{
		Shards: 1, MaxInFlight: 6, Contention: true, Capacity: 2, SurgeSlope: 0.5,
	})
	if sum.Admitted != len(tenants) || sum.Failed != 0 {
		t.Fatalf("contended summary %+v", sum)
	}
	if len(sum.Capacity) != 0 {
		t.Fatalf("capacity oversubscription under enforcement: %v", sum.Capacity)
	}
	for _, r := range got {
		if r.Err != nil {
			t.Fatalf("tenant %s failed under contention: %v", r.Tenant.ID, r.Err)
		}
		for _, v := range r.Violations {
			t.Fatalf("tenant %s invariant violation under contention: %v", r.Tenant.ID, v)
		}
	}
	if sum.TotalCost < free.TotalCost {
		t.Errorf("surge pricing made the contended region cheaper: %.4f vs %.4f",
			sum.TotalCost, free.TotalCost)
	}
}

// TestServiceAdmissionCaps pins rejection semantics: capped-out tenants get
// a reason and no report (they never run, so no ledger entries can exist),
// admitted ones are unaffected, and the service trace reconciles.
func TestServiceAdmissionCaps(t *testing.T) {
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(4, 47)
	tenants[1].Budget = 0  // no budget in a budget-capped region
	tenants[2].Budget = 99 // over the cap
	tenants[0].Budget = 5  // fine
	tenants[3].Budget = 5  // fine
	for i := range tenants {
		tenants[i].Deadline = 100 * time.Hour
	}

	sum, got := runService(t, env, bench, curves, tenants, Config{
		Shards: 2, MaxBudget: 10, MaxDeadline: 200 * time.Hour, Trace: true,
	})
	if sum.Admitted != 2 || sum.Rejected != 2 {
		t.Fatalf("admitted %d rejected %d, want 2/2", sum.Admitted, sum.Rejected)
	}
	for _, i := range []int{1, 2} {
		r := got[i]
		if r.Admitted || r.Reason != ReasonBudgetCap || r.Report != nil || r.Err != nil {
			t.Fatalf("tenant %s not cleanly rejected: %+v", r.Tenant.ID, r)
		}
	}
	for _, i := range []int{0, 3} {
		if r := got[i]; !r.Admitted || r.Report == nil {
			t.Fatalf("tenant %s should have run: %+v", r.Tenant.ID, r)
		}
	}
	ta := obs.AttributeTenants(sum.Trace)
	if ta.Admitted != 2 || ta.Rejected != 2 {
		t.Fatalf("trace attribution %+v", ta)
	}
	for _, row := range ta.Rows {
		if !row.Admitted && (row.NetCost != 0 || row.Done) {
			t.Fatalf("rejected tenant %s shows spend in the trace: %+v", row.Tenant, row)
		}
	}
	if ta.NetCost != sum.TotalCost {
		t.Fatalf("trace cost %.6f disagrees with summary %.6f", ta.NetCost, sum.TotalCost)
	}
}

// TestServiceWeightedFair pins the admission ordering: heavier tenants land
// in earlier waves, and results emit in admission order (descending weight,
// ties by submission).
func TestServiceWeightedFair(t *testing.T) {
	env, bench, curves := testWorld(t)
	// Weights 1,2,4,1,2,4 → weight-4 tenants (idx 2, 5) are admitted first.
	tenants := DefaultBattery(6, 53)
	_, got := runService(t, env, bench, curves, tenants, Config{
		Shards: 1, MaxInFlight: 2, Admission: AdmissionWeightedFair,
	})
	wantOrder := []int{2, 5, 1, 4, 0, 3}
	waveOf := map[string]int{}
	for i, r := range got {
		if r.Index != wantOrder[i] {
			t.Fatalf("results out of admission order at %d: got index %d, want %d", i, r.Index, wantOrder[i])
		}
		waveOf[r.Tenant.ID] = r.Wave
	}
	if waveOf["t-00002"] != 0 || waveOf["t-00005"] != 0 {
		t.Fatalf("weight-4 tenants not in wave 0: %v", waveOf)
	}
	if waveOf["t-00000"] != 2 || waveOf["t-00003"] != 2 {
		t.Fatalf("weight-1 tenants not in the last wave: %v", waveOf)
	}
}

// TestServiceTraceTenant pins the explain-this-tenant workflow: exactly the
// named tenant carries a full campaign flight recording.
func TestServiceTraceTenant(t *testing.T) {
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(3, 61)
	_, got := runService(t, env, bench, curves, tenants, Config{
		Shards: 2, TraceTenant: "t-00001",
	})
	for _, r := range got {
		if r.Tenant.ID == "t-00001" {
			if r.Trace == nil || r.Trace.Len() == 0 {
				t.Fatalf("traced tenant has no recording: %+v", r)
			}
			if r.Trace.Meta.Scenario != "service" || r.Trace.Meta.Replicate != 1 {
				t.Fatalf("trace meta not stamped: %+v", r.Trace.Meta)
			}
		} else if r.Trace != nil {
			t.Fatalf("untraced tenant %s has a recording", r.Tenant.ID)
		}
	}
}

// panicPolicyName is registered only inside the child process of
// TestServiceContainsPanickingTenant, so no other test sees it.
const panicPolicyName = "service.test/panics-on-redeploy"

// panicOnRedeploy bids exactly the current spot price of spottune's pick,
// so its first instance is noticed at the first price rise, and panics on
// the redeploy that follows: the tenant dies inside the notice window, with
// the noticed instance still running and its revoke event pending on the
// wave's shared clock.
type panicOnRedeploy struct{ inner policy.Policy }

func (panicOnRedeploy) Name() string { return panicPolicyName }

func (p panicOnRedeploy) Decide(ctx policy.Context) (policy.Request, error) {
	if ctx.Trial.LastRevoked != "" {
		panic("injected redeploy panic")
	}
	req, err := p.inner.Decide(ctx)
	if err == nil && !req.OnDemand {
		req.MaxPrice, err = ctx.Market.CurrentPrice(req.TypeName)
	}
	return req, err
}

// TestServiceContainsPanickingTenant: a tenant whose campaign panics must
// come back as a failed Result naming it, while its wave drains and every
// other tenant's economics stay bit-identical to a solo run. The test
// re-runs itself in a child process that registers the panicking policy —
// registration is global — and requires the child to exit cleanly.
func TestServiceContainsPanickingTenant(t *testing.T) {
	const childEnv = "SPOTTUNE_SERVICE_PANIC_CHILD"
	if os.Getenv(childEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestServiceContainsPanickingTenant$", "-test.count=1")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child process failed: %v\n%s", err, out)
		}
		return
	}
	policy.Register(panicPolicyName, "panics on its first redeploy after a notice", func(p policy.Params) (policy.Policy, error) {
		inner, err := policy.New(policy.SpotTuneName, p)
		return panicOnRedeploy{inner: inner}, err
	})
	env, bench, curves := testWorld(t)
	tenants := DefaultBattery(8, 11)
	const dead = 4 // shares wave 0 of shard 0 with tenants 0 and 2
	tenants[dead].Policy = panicPolicyName

	sum, got := runService(t, env, bench, curves, tenants, Config{Shards: 2, MaxInFlight: 3})
	if sum.Failed != 1 || sum.Admitted != len(tenants)-1 || len(got) != len(tenants) {
		t.Fatalf("summary %+v with %d results, want 1 failed and %d admitted", sum, len(got), len(tenants)-1)
	}
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("results out of submission order at %d: %+v", i, r)
		}
		if i == dead {
			var pe *campaign.PanicError
			if !errors.As(r.Err, &pe) || !strings.Contains(r.Err.Error(), r.Tenant.ID) || r.Report != nil {
				t.Fatalf("panicking tenant not contained: err %v, report %v", r.Err, r.Report)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("tenant %s failed: %v", r.Tenant.ID, r.Err)
		}
		solo, err := env.RunPolicy(bench, curves, campaign.Options{Theta: r.Tenant.Theta, Seed: r.Tenant.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reportKey(r.Report), reportKey(solo); got != want {
			t.Errorf("tenant %s diverged from its solo run:\n service %s\n solo    %s", r.Tenant.ID, got, want)
		}
	}
}
