package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/core"
	"spottune/internal/policy"
	"spottune/internal/scenario"
	"spottune/internal/search"
	"spottune/internal/workload"
)

func TestMain(m *testing.M) {
	registerWrappers()
	os.Exit(m.Run())
}

// tiny shrinks every workload to a few seconds of work.
var tiny = sizes{MatrixSeeds: 1, Specs: 1, Tenants: 16, SweepSeeds: 1, SetupReps: 1}

func tinyWorld(t *testing.T) (*campaign.Environment, *workload.Benchmark, workload.Curves) {
	t.Helper()
	env, err := campaign.NewEnvironment(campaign.EnvOptions{Seed: 3, Days: 2, TrainDays: 1, Predictor: campaign.PredictorConstant})
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.SuiteByName("LoR", workload.Config{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return env, b, b.SyntheticCurves(3)
}

func TestWrappersDelegateNameAndKeepReports(t *testing.T) {
	env, b, curves := tinyWorld(t)
	for _, name := range builtinPolicies {
		pol, err := env.NewPolicy(wrapPrefix+name, 1, policy.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if pol.Name() != name {
			t.Errorf("policy wrapper of %s is named %q", name, pol.Name())
		}
	}
	for _, name := range builtinTuners {
		tun, err := search.New(wrapPrefix+name, search.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if tun.Name() != name {
			t.Errorf("tuner wrapper of %s is named %q", name, tun.Name())
		}
	}

	tr := new(tracer)
	active.Store(tr)
	defer active.Store(nil)
	traced, err := env.WithPredictors(wrapPredictors(env.Predictors, tr))
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ policy, tuner string }
	var cases []pair
	for _, p := range builtinPolicies {
		cases = append(cases, pair{p, search.SpotTuneName})
	}
	for _, tn := range builtinTuners {
		cases = append(cases, pair{policy.SpotTuneName, tn})
	}
	for _, c := range cases {
		opt := campaign.Options{Theta: 0.7, Seed: 5, Policy: c.policy, Tuner: c.tuner}
		want, err := env.RunPolicy(b, curves, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Policy, opt.Tuner = wrapPrefix+c.policy, wrapPrefix+c.tuner
		got, err := traced.RunPolicy(b, curves, opt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.NetCost) != math.Float64bits(want.NetCost) || got.JCT != want.JCT {
			t.Errorf("%s/%s: traced cost %v JCT %v, untraced %v %v", c.policy, c.tuner, got.NetCost, got.JCT, want.NetCost, want.JCT)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: traced report differs from the untraced one", c.policy, c.tuner)
		}
	}
	for name, l := range map[string]*layer{
		"campaign": &tr.campaign, "decide": &tr.decide, "quote": &tr.quote,
		"predict": &tr.predict, "tuner": &tr.tuner, "fit": &tr.fit,
	} {
		if l.calls == 0 {
			t.Errorf("no %s spans recorded", name)
		}
	}
	if got, want := tr.campaign.calls, int64(len(cases)); got != want {
		t.Errorf("%d campaign spans, want one per campaign (%d)", got, want)
	}
}

func fakeTask(key string, run func() (*core.Report, error)) campaign.Task {
	return campaign.Task{Key: key, Run: func(*rand.Rand) (*core.Report, error) { return run() }}
}

func TestInjectedFailuresAreCounted(t *testing.T) {
	ok := func() (*core.Report, error) { return &core.Report{NetCost: 1, JCT: time.Hour}, nil }
	tasks := []campaign.Task{
		fakeTask("ok", ok),
		fakeTask("error", func() (*core.Report, error) { return nil, errors.New("injected") }),
		fakeTask("ok", ok),
		fakeTask("panic", func() (*core.Report, error) { panic("injected") }),
	}
	tl := runSweep(tasks)
	if tl.expected != 4 || tl.failed != 2 || tl.reports != 2 {
		t.Fatalf("sweep tally: expected %d failed %d reports %d, want 4, 2, 2", tl.expected, tl.failed, tl.reports)
	}
	var res result
	res.verify([]*tally{tl})
	if res.attempted != 4 || res.failed != 2 {
		t.Errorf("verify: attempted %d failed %d, want 4 and 2", res.attempted, res.failed)
	}

	// A policy that always errors aborts Stream mid-grid: the cells it
	// never delivers count as failed rather than vanishing.
	policy.Register("perfbench.test/fails", "always errors", func(policy.Params) (policy.Policy, error) {
		return failingPolicy{}, nil
	})
	bat := &battery{
		specs:    scenario.DefaultSpecs()[:1],
		seeds:    []uint64{9},
		tuners:   []string{search.SpotTuneName},
		policies: []string{policy.SpotTuneName, "perfbench.test/fails"},
	}
	tl = bat.pass(nil)
	if tl.expected != 2 || tl.failed != 2 {
		t.Errorf("battery with a failing policy: expected %d failed %d (errs %v), want 2 and 2", tl.expected, tl.failed, tl.errs)
	}

	// A pass whose digest differs from the first fails as a whole.
	a, b := newTally(3), newTally(3)
	a.digest, b.digest = 1, 2
	res = result{}
	res.verify([]*tally{a, b})
	if res.attempted != 6 || res.failed != 3 {
		t.Errorf("digest mismatch: attempted %d failed %d, want 6 and 3", res.attempted, res.failed)
	}
}

type failingPolicy struct{}

func (failingPolicy) Name() string { return "perfbench.test/fails" }

func (failingPolicy) Decide(policy.Context) (policy.Request, error) {
	return policy.Request{}, errors.New("injected decide failure")
}

// benchmarkJSON is the part of BENCHMARK.json the runner must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, specs []metricSpec, declared []struct{ Name, Unit string }) {
		if len(specs) != len(declared) {
			t.Fatalf("%s: runner has %d metrics, BENCHMARK.json %d", kind, len(specs), len(declared))
		}
		seen := map[string]bool{}
		for i, s := range specs {
			if !valid.MatchString(s.name) || seen[s.name] {
				t.Errorf("%s: bad or duplicate metric name %q", kind, s.name)
			}
			seen[s.name] = true
			if d := declared[i]; d.Name != s.name || d.Unit != s.unit {
				t.Errorf("%s[%d]: runner %s [%s], BENCHMARK.json %s [%s]", kind, i, s.name, s.unit, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, runner %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, runner %q", i, bj.Workloads[i].Name, w.name)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at tiny size, both
// untraced and traced, and checks the result line: every metric is present
// with its unit, the outputs check out, and the traced digest equals the
// untraced one (verify fails the run otherwise).
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(options{workload: w.name, seed: 7, trace: traced, sizes: tiny})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var out bytes.Buffer
			if err := report(&out, res, traced); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v attempted %d failed %d (%v)", w.name, traced, line.Correct, line.Attempted, line.Failed, res.errs)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(line.Metrics), len(specs))
			}
			for _, s := range specs {
				if m, ok := line.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s missing or with unit %q", w.name, traced, s.name, m.Unit)
				}
			}
			if !traced {
				continue
			}
			// Layers that run on every workload report work; RevPred and
			// the service layer only where they run.
			for _, name := range []string{"market.worlds", "policy.decide_calls", "cloudsim.quote_calls",
				"earlycurve.fit_calls", "search.tuner_calls", "core.turns"} {
				if line.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, name, line.Metrics[name].Value)
				}
			}
			if got := line.Metrics["revpred.predict_calls"].Value > 0; got != (w.name == "revpred-sweep") {
				t.Errorf("%s: revpred.predict_calls = %v", w.name, line.Metrics["revpred.predict_calls"].Value)
			}
			if got := line.Metrics["service.waves"].Value > 0; got != (w.name == "service") {
				t.Errorf("%s: service.waves = %v", w.name, line.Metrics["service.waves"].Value)
			}
		}
	}
}
