package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/core"
	"spottune/internal/invariants"
	"spottune/internal/policy"
	"spottune/internal/revpred"
	"spottune/internal/scenario"
	"spottune/internal/search"
	"spottune/internal/service"
	"spottune/internal/workload"
)

// sizes are the workload input sizes. The defaults are the benchmark; the
// tests shrink them.
type sizes struct {
	MatrixSeeds int // battery: matrix seeds per pass
	Specs       int // battery: leading scenario.DefaultSpecs used (0 = all)
	Tenants     int // service: tenants per pass
	SweepSeeds  int // revpred-sweep: campaign seeds per policy per pass
	SetupReps   int // set-ups per run; setup_s is their median
}

var defaultSizes = sizes{MatrixSeeds: 6, Tenants: 1000, SweepSeeds: 32, SetupReps: 5}

// bench is a workload whose inputs are built and ready to run.
type bench interface {
	// pass runs the inputs once and accounts for every campaign. tr is nil
	// for an untraced pass; a traced pass runs the same inputs through the
	// tracing wrappers and reports into tr.
	pass(tr *tracer) *tally
	// describe lists the input sizes for the run manifest.
	describe() map[string]int
}

// workloadDef builds a workload's inputs from the seed. setup is timed as
// set-up; it records world builds and RevPred training into st. Why each
// workload exists is in BENCHMARK.json and README.md.
type workloadDef struct {
	name  string
	setup func(seed uint64, sz sizes, st *tracer) (bench, error)
}

var workloads = []workloadDef{
	{name: "battery", setup: setupBattery},
	{name: "service", setup: setupService},
	{name: "revpred-sweep", setup: setupRevpredSweep},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// derive is the i-th input seed of a run seed (splitmix64 finalizer), so
// neighbouring run seeds give unrelated inputs.
func derive(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// worldSeed fixes the market of the service and revpred-sweep worlds. One
// market realization carries every campaign of those workloads, and
// between realizations the mean simulated cost moves by tens of percent,
// which would swamp any comparison between runs; the run seed drives the
// workload curves and the tenant or campaign seeds instead. The battery
// spans many worlds per pass, so its worlds do follow the run seed.
const worldSeed = 1

// workers is the parallelism of every pool the benchmark drives.
func workers() int { return runtime.GOMAXPROCS(0) }

// ---- battery ----------------------------------------------------------

// battery is the quick scenario battery: scenario.DefaultSpecs x every
// built-in tuner x every built-in policy through Matrix.Stream with the
// invariant audit on, once per matrix seed. Stream builds a fresh world
// per spec, so world build is part of the timed work here.
type battery struct {
	specs    []scenario.Spec
	seeds    []uint64
	tuners   []string
	policies []string
}

func setupBattery(seed uint64, sz sizes, _ *tracer) (bench, error) {
	specs := scenario.DefaultSpecs()
	if sz.Specs > 0 && sz.Specs < len(specs) {
		specs = specs[:sz.Specs]
	}
	b := &battery{specs: specs, tuners: builtinTuners, policies: builtinPolicies}
	for i := 0; i < sz.MatrixSeeds; i++ {
		b.seeds = append(b.seeds, derive(seed, i))
	}
	// Warm-up: every spec and policy once, under the default tuner, on the
	// first matrix seed.
	warm := &battery{specs: specs, seeds: b.seeds[:1], tuners: []string{search.SpotTuneName}, policies: b.policies}
	if t := warm.pass(nil); t.failed > 0 {
		return nil, fmt.Errorf("battery warm-up: %s", strings.Join(t.errs, "; "))
	}
	return b, nil
}

func (b *battery) describe() map[string]int {
	return map[string]int{
		"specs": len(b.specs), "tuners": len(b.tuners), "policies": len(b.policies),
		"matrix_seeds": len(b.seeds), "campaigns_per_pass": b.cells(),
	}
}

func (b *battery) cells() int { return len(b.specs) * len(b.tuners) * len(b.policies) * len(b.seeds) }

func (b *battery) pass(tr *tracer) *tally {
	t := newTally(b.cells())
	tuners, policies := b.tuners, b.policies
	if tr != nil {
		tuners, policies = wrapped(tuners), wrapped(policies)
	}
	for _, ms := range b.seeds {
		if tr != nil {
			if err := timeWorlds(b.specs, ms, tr); err != nil {
				t.fail(err.Error())
			}
		}
		start := time.Now()
		_, err := scenario.Matrix{Specs: b.specs}.Stream(scenario.StreamOptions{
			Options: scenario.Options{Seed: ms, Quick: true, Tuners: tuners, Policies: policies},
			Workers: workers(),
			OnCell: func(c scenario.Cell) error {
				t.add(c.Report, len(c.Violations), nil)
				return nil
			},
		})
		t.wall += time.Since(start)
		if err != nil {
			// Stream stops at the first failing cell; the cells it never
			// delivered count as missing when the tally closes.
			t.fail(err.Error())
		}
	}
	t.close()
	return t
}

// timeWorlds builds, outside the timed Stream call, the same base worlds
// Stream builds for one matrix seed (one per distinct regime and pool;
// fault specs share their regime's world), timing each
// scenario.Spec.Environment call. The spec fields mirror the quick
// defaults Stream resolves.
func timeWorlds(specs []scenario.Spec, matrixSeed uint64, tr *tracer) error {
	seen := map[string]bool{}
	for _, s := range specs {
		key := s.Regime + "|" + strings.Join(s.Pool, ",")
		if seen[key] {
			continue
		}
		seen[key] = true
		s.Seed, s.Days, s.TrainDays = matrixSeed, 5, 2
		s.Predictor = campaign.PredictorConstant
		s.Faults = nil
		start := time.Now()
		if _, err := s.Environment(scenario.Options{Seed: matrixSeed, Quick: true}); err != nil {
			return err
		}
		tr.world.add(time.Since(start))
	}
	return nil
}

// ---- service ----------------------------------------------------------

// serviceBench is the multi-tenant day: DefaultBattery tenants through
// service.Run on one quick world with weighted-fair admission, contention
// (4 spot instances per type, surge slope 0.5) and the audit on. The world
// is built in set-up; the timed work is decide, quote, launch and the
// arbiter's hand-offs between co-resident tenants.
type serviceBench struct {
	env     *campaign.Environment
	bench   *workload.Benchmark
	curves  workload.Curves
	tenants []service.Tenant
}

const (
	serviceShards   = 8
	serviceInFlight = 8
	serviceWarmup   = 128
)

func setupService(seed uint64, sz sizes, st *tracer) (bench, error) {
	s := derive(seed, 0)
	start := time.Now()
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: worldSeed, Days: 2, TrainDays: 1, Predictor: campaign.PredictorConstant,
	})
	if err != nil {
		return nil, err
	}
	st.world.add(time.Since(start))
	b, err := workload.SuiteByName("LoR", workload.Config{Seed: s, Scale: 0.2})
	if err != nil {
		return nil, err
	}
	sb := &serviceBench{env: env, bench: b, curves: b.SyntheticCurves(s), tenants: service.DefaultBattery(sz.Tenants, s)}
	warm := &serviceBench{env: env, bench: b, curves: sb.curves, tenants: sb.tenants[:min(serviceWarmup, len(sb.tenants))]}
	if t := warm.pass(nil); t.failed > 0 {
		return nil, fmt.Errorf("service warm-up: %s", strings.Join(t.errs, "; "))
	}
	return sb, nil
}

func (s *serviceBench) describe() map[string]int {
	return map[string]int{
		"tenants": len(s.tenants), "shards": serviceShards, "in_flight": serviceInFlight,
		"days": 2, "campaigns_per_pass": len(s.tenants),
	}
}

func (s *serviceBench) pass(tr *tracer) *tally {
	t := newTally(len(s.tenants))
	tenants := s.tenants
	if tr != nil {
		tenants = make([]service.Tenant, len(s.tenants))
		for i, ten := range s.tenants {
			// DefaultBattery tenants leave both names empty, which the
			// campaign layer resolves to spottune.
			ten.Policy = wrapPrefix + policy.SpotTuneName
			ten.Tuner = wrapPrefix + search.SpotTuneName
			tenants[i] = ten
		}
	}
	cfg := service.Config{
		Shards:      serviceShards,
		MaxInFlight: serviceInFlight,
		Admission:   service.AdmissionWeightedFair,
		Contention:  true,
		Capacity:    4,
		SurgeSlope:  0.5,
		OnResult: func(r service.Result) {
			err := r.Err
			if err == nil && !r.Admitted {
				err = fmt.Errorf("tenant %s rejected: %s", r.Tenant.ID, r.Reason)
			}
			t.add(r.Report, len(r.Violations), err)
		},
	}
	start := time.Now()
	sum, err := service.Run(s.env, s.bench, s.curves, tenants, cfg)
	t.wall = time.Since(start)
	if err != nil {
		t.fail(err.Error())
	} else {
		t.waves = sum.Waves
		for _, v := range sum.Capacity {
			t.fail("capacity: " + v.Error())
		}
	}
	t.close()
	return t
}

// ---- revpred-sweep ----------------------------------------------------

// revpredSweep crosses the spot-deciding policies with campaign seeds
// through campaign.Sweep on one world whose predictors are trained RevPred
// LSTMs, so every spot decision runs LSTM inference. Training is set-up.
type revpredSweep struct {
	env    *campaign.Environment
	preds  map[string]revpred.Predictor
	bench  *workload.Benchmark
	curves workload.Curves
	seeds  []uint64
}

// sweepPolicies are the built-in policies whose decisions query the
// revocation predictor.
var sweepPolicies = []string{policy.SpotTuneName, policy.FallbackName, policy.DiversifiedSpotName, policy.MixedFleetName}

const (
	sweepDays      = 3
	sweepTrainDays = 1
)

func setupRevpredSweep(seed uint64, sz sizes, st *tracer) (bench, error) {
	s := derive(seed, 0)
	start := time.Now()
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: worldSeed, Days: sweepDays, TrainDays: sweepTrainDays, Predictor: campaign.PredictorConstant,
	})
	if err != nil {
		return nil, err
	}
	st.world.add(time.Since(start))
	// The full-fidelity RevPred configuration, with the gradient shard
	// count pinned so the trained weights do not depend on the machine.
	cfg := revpred.Config{Hidden: 12, Depth: 2, Epochs: 2, Stride: 4, Seed: worldSeed, Workers: 2}
	start = time.Now()
	preds := make(map[string]revpred.Predictor, len(env.Pool))
	for _, name := range env.Pool {
		m, err := revpred.Train(env.Grids[name], revpred.HistorySteps, sweepTrainDays*24*60, cfg)
		if err != nil {
			return nil, fmt.Errorf("training RevPred for %s: %w", name, err)
		}
		preds[name] = m
	}
	st.train.add(time.Since(start))
	b, err := workload.SuiteByName("LoR", workload.Config{Seed: s, Scale: 0.2})
	if err != nil {
		return nil, err
	}
	rs := &revpredSweep{env: env, preds: preds, bench: b, curves: b.SyntheticCurves(s)}
	for i := 0; i < sz.SweepSeeds; i++ {
		rs.seeds = append(rs.seeds, derive(seed, i+1))
	}
	warm := *rs
	warm.seeds = rs.seeds[:1]
	if t := warm.pass(nil); t.failed > 0 {
		return nil, fmt.Errorf("revpred-sweep warm-up: %s", strings.Join(t.errs, "; "))
	}
	return rs, nil
}

func (r *revpredSweep) describe() map[string]int {
	return map[string]int{
		"policies": len(sweepPolicies), "seeds": len(r.seeds), "markets": len(r.env.Pool),
		"days": sweepDays, "campaigns_per_pass": len(sweepPolicies) * len(r.seeds),
	}
}

func (r *revpredSweep) pass(tr *tracer) *tally {
	preds, tuner := r.preds, ""
	if tr != nil {
		preds, tuner = wrapPredictors(r.preds, tr), wrapPrefix+search.SpotTuneName
	}
	env, err := r.env.WithPredictors(preds)
	if err != nil {
		t := newTally(len(sweepPolicies) * len(r.seeds))
		t.fail(err.Error())
		t.close()
		return t
	}
	var tasks []campaign.Task
	for _, seed := range r.seeds {
		for _, name := range sweepPolicies {
			if tr != nil {
				name = wrapPrefix + name
			}
			tasks = append(tasks, auditedTask(env, r.bench, r.curves, campaign.Options{
				Theta: 0.7, Seed: seed, Policy: name, Tuner: tuner,
			}))
		}
	}
	return runSweep(tasks)
}

// auditedTask runs one campaign with the invariant audit on; audit
// findings surface as the task's error.
func auditedTask(env *campaign.Environment, b *workload.Benchmark, curves workload.Curves, opt campaign.Options) campaign.Task {
	return campaign.Task{
		Key: opt.Policy,
		Run: func(*rand.Rand) (*core.Report, error) {
			var violations []invariants.Violation
			opt.Inspect = func(d *campaign.RunDetail) error {
				violations = invariants.Check(scenario.StateFor(d))
				return nil
			}
			rep, err := env.RunPolicy(b, curves, opt)
			if err == nil && len(violations) > 0 {
				err = fmt.Errorf("%d invariant violations, first: %s", len(violations), violations[0].Error())
			}
			return rep, err
		},
	}
}

// runSweep runs the tasks on the Sweep pool and accounts for each result
// in task order.
func runSweep(tasks []campaign.Task) *tally {
	t := newTally(len(tasks))
	start := time.Now()
	results := campaign.Sweep(tasks, campaign.SweepOptions{Workers: workers(), Seed: 1})
	t.wall = time.Since(start)
	for _, res := range results {
		t.add(res.Report, 0, res.Err)
	}
	t.close()
	return t
}
