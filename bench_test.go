package spottune

// One benchmark per table/figure of the paper's evaluation (§IV), plus
// micro-benchmarks of the core substrates. Figure benchmarks run the same
// experiment code as cmd/benchfigs at reduced scale and report the headline
// quantities via b.ReportMetric, so `go test -bench` regenerates the
// paper-facing numbers. Experiment fixtures (market generation, predictor
// training — built lazily by the memoizing Context on first use) are warmed
// by one untimed run before b.ResetTimer, so ns/op measures the experiment,
// not fixture assembly:
//
//	go test -bench=Fig -benchmem
//
// Full-fidelity runs (real training, trained RevPred) are produced by
// `go run ./cmd/benchfigs -fig all`; see EXPERIMENTS.md.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/earlycurve"
	"spottune/internal/experiments"
	"spottune/internal/market"
	"spottune/internal/mltrain"
	"spottune/internal/nn"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/revpred"
	"spottune/internal/scenario"
	"spottune/internal/service"
	"spottune/internal/simclock"
	"spottune/internal/trial"

	"math/rand/v2"
)

func benchOpts() experiments.Options {
	return experiments.Options{
		Seed:      1,
		Scale:     0.2,
		Quick:     true,
		Workloads: []string{"LoR", "ResNet"},
	}
}

// BenchmarkFig1SpotPrices regenerates the Fig. 1 trace (11 days of the
// spiky r3.xlarge market).
func BenchmarkFig1SpotPrices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(experiments.Options{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Records)), "records")
	}
}

// BenchmarkFig5Curves records the example validation-loss curves with the
// real pure-Go trainers.
func BenchmarkFig5Curves(b *testing.B) {
	ctx := experiments.NewContext(experiments.Options{Seed: 1, Scale: 0.2, Workloads: []string{"LoR", "ResNet"}})
	if _, err := experiments.Fig5(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.ResNet)), "resnet_points")
	}
}

// BenchmarkFig6Profiling samples the performance matrix (the COV < 0.1
// online-profiling claim of §IV-A5).
func BenchmarkFig6Profiling(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig6(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].COV, "cov")
	}
}

// BenchmarkFig7Campaign runs the four-approach cost/JCT/PCR comparison on
// two workloads at reduced scale.
func BenchmarkFig7Campaign(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig7(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		pcr := experiments.PCRNormalized(rows)
		b.ReportMetric(pcr["LoR"][experiments.ApproachCheapest], "pcr_cheapest_vs_st07")
		for _, r := range rows {
			if r.Workload == "LoR" && r.Approach == experiments.ApproachSpotTune07 {
				b.ReportMetric(r.Cost, "st07_cost_usd")
				b.ReportMetric(r.JCTHours, "st07_jct_hours")
			}
		}
	}
}

// BenchmarkFig8ThetaSweep sweeps θ over one workload.
func BenchmarkFig8ThetaSweep(b *testing.B) {
	ctx := experiments.NewContext(experiments.Options{
		Seed: 1, Scale: 0.15, Quick: true, Workloads: []string{"LoR"},
	})
	if _, _, err := experiments.Fig8(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, acc, err := experiments.Fig8(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(acc[len(acc)-1].Top3, "top3_at_theta1")
	}
}

// BenchmarkFig9Refund measures the refunded-resource contribution at θ=0.7.
func BenchmarkFig9Refund(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig7(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		f9 := experiments.Fig9(rows)
		sum := 0.0
		for _, r := range f9 {
			sum += r.FreeFraction
		}
		b.ReportMetric(sum/float64(len(f9)), "mean_free_frac")
	}
}

// BenchmarkFig10RevPred trains and scores the three revocation predictors
// on every market (tiny capacity).
func BenchmarkFig10RevPred(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig10(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RevPred.Accuracy(), "revpred_acc")
		b.ReportMetric(res.Tributary.Accuracy(), "tributary_acc")
	}
}

// BenchmarkFig11EarlyCurve compares EarlyCurve and SLAQ across the 16
// ResNet configurations.
func BenchmarkFig11EarlyCurve(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig11(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(ctx)
		if err != nil {
			b.Fatal(err)
		}
		var ec, slaq float64
		for _, r := range res.Rows {
			ec += r.EarlyErr
			slaq += r.SLAQErr
		}
		n := float64(len(res.Rows))
		b.ReportMetric(ec/n, "earlycurve_err")
		b.ReportMetric(slaq/n, "slaq_err")
	}
}

// BenchmarkFig12Checkpoint measures checkpoint-restore overhead share.
func BenchmarkFig12Checkpoint(b *testing.B) {
	ctx := experiments.NewContext(benchOpts())
	if _, err := experiments.Fig7(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		f12 := experiments.Fig12(rows)
		sum := 0.0
		for _, r := range f12 {
			sum += r.OverheadFrac
		}
		b.ReportMetric(sum/float64(len(f12)), "mean_overhead_frac")
	}
}

// BenchmarkCrossPolicy runs the cross-policy provisioning study (every
// registered policy on one workload through campaign.Sweep) and reports the
// per-policy headline costs — the numbers `make bench` exports to
// BENCH_policy.json.
func BenchmarkCrossPolicy(b *testing.B) {
	ctx := experiments.NewContext(experiments.Options{
		Seed: 1, Scale: 0.15, Quick: true, Workloads: []string{"LoR"},
	})
	if _, _, err := experiments.CrossPolicy(ctx, false); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.CrossPolicy(ctx, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "policies")
		for _, r := range rows {
			switch r.Policy {
			case PolicySpotTune:
				b.ReportMetric(r.Cost, "spottune_cost_usd")
			case PolicyOnDemand:
				b.ReportMetric(r.Cost, "on_demand_cost_usd")
			case PolicyMixedFleet:
				b.ReportMetric(float64(r.OnDemandDeployments), "mixed_fleet_od_deploys")
			}
		}
	}
}

// BenchmarkCrossTuner measures the search-strategy comparison study: every
// registered tuner on one workload under the spottune policy, fanned out
// through campaign.Sweep.
func BenchmarkCrossTuner(b *testing.B) {
	ctx := experiments.NewContext(experiments.Options{
		Seed: 1, Scale: 0.15, Quick: true, Workloads: []string{"LoR"},
	})
	if _, err := experiments.CrossTuner(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CrossTuner(ctx)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "tuners")
		for _, r := range rows {
			switch r.Tuner {
			case TunerSpotTune:
				b.ReportMetric(r.Cost, "spottune_cost_usd")
			case TunerFullTrain:
				b.ReportMetric(r.Cost, "full_train_cost_usd")
			case TunerHyperband:
				b.ReportMetric(float64(r.Notices), "hyperband_notices")
			}
		}
	}
}

// ---------------------------------------------------------------- micro

// BenchmarkMarketGenerate measures synthetic trace generation (one market,
// one day).
func BenchmarkMarketGenerate(b *testing.B) {
	it, _ := market.DefaultCatalog().Lookup("r3.xlarge")
	spec := market.MarketSpec{Type: it}
	start := campaign.DefaultStart()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := market.Generate(spec, start, start.Add(24*time.Hour), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldBuild measures one quick battery world: a 5-day region of
// every catalog market, its SoA store and 1-minute grids, and constant
// predictors on a 2-day training split — what Matrix.Stream builds per spec
// at quick fidelity. Run with -benchmem for allocs/op.
func BenchmarkWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.NewEnvironment(campaign.EnvOptions{
			Seed: uint64(i) + 1, Days: 5, TrainDays: 2, Predictor: campaign.PredictorConstant,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/world")
}

// BenchmarkLSTMForwardBackward measures one RevPred-shaped LSTM training
// step (59 timesteps, 6 features, hidden 24, depth 3) through the reusable
// BPTT workspace, exactly as revpred.Train drives it.
func BenchmarkLSTMForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	l := nn.NewStackedLSTM("b", 6, 24, 3, rng)
	xs := make([][]float64, 59)
	for t := range xs {
		xs[t] = make([]float64, 6)
		for j := range xs[t] {
			xs[t][j] = rng.Float64()
		}
	}
	ws := nn.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		hs, cache := l.ForwardSeqWS(ws, xs)
		last := hs[len(hs)-1]
		l.BackwardSeqWS(ws, cache, nn.LastHiddenGradWS(ws, 59, 24, last))
	}
}

// BenchmarkEarlyCurveFit measures one staged fit over a 200-point two-stage
// curve.
func BenchmarkEarlyCurveFit(b *testing.B) {
	pts := make([]earlycurve.MetricPoint, 200)
	for k := 1; k <= 200; k++ {
		v := 1/(0.05*float64(k)+1.2) + 0.8
		if k >= 100 {
			v = 1/(2.0*float64(k-99)+5.0) + 0.2
		}
		pts[k-1] = earlycurve.MetricPoint{Step: k, Value: v}
	}
	p := &earlycurve.Predictor{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PredictFinal(pts, 300); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventQueue measures the virtual clock under heavy scheduling.
func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clk := simclock.NewVirtual(campaign.DefaultStart())
		for j := 0; j < 1000; j++ {
			clk.ScheduleAfter(time.Duration(j%97)*time.Second, func(time.Time) {})
		}
		clk.Sleep(time.Minute * 2)
	}
}

// BenchmarkGBTRound measures one boosting round on the GBTR workload data.
func BenchmarkGBTRound(b *testing.B) {
	data := mltrain.SyntheticRegression(400, 8, 0.1, 5)
	train, _ := data.Split(0.8)
	idx := make([]int, 128)
	for i := range idx {
		idx[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mltrain.NewGBTRegressor(5, 4)
		m.TrainStep(train, idx, 0.3)
	}
}

// BenchmarkRevPredInference measures one provisioning-time probability
// query (feature assembly + LSTM forward).
func BenchmarkRevPredInference(b *testing.B) {
	it, _ := market.DefaultCatalog().Lookup("m4.2xlarge")
	specs, _ := market.DefaultSpecs(market.DefaultCatalog())
	var spec market.MarketSpec
	for _, s := range specs {
		if s.Type.Name == it.Name {
			spec = s
		}
	}
	start := campaign.DefaultStart()
	tr, err := market.Generate(spec, start, start.Add(48*time.Hour), 3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := market.NewGrid(it, tr, start, start.Add(48*time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	m, err := revpred.Train(g, revpred.HistorySteps, 24*60,
		revpred.Config{Hidden: 8, Depth: 2, Epochs: 1, Stride: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := revpred.HistorySteps + i%(g.Len()-2*revpred.HistorySteps)
		m.Predict(g, idx, g.Prices[idx]+0.05)
	}
}

// quoteBench is the fixture of the deploy-path micro benchmarks: the
// default six-type pool over two generated days (constant predictor) and a
// fresh cluster whose clock starts at the campaign boundary. tick moves the
// clock by an off-grid stride, so trailing-hour windows land between
// minute records as they do mid-campaign.
type quoteBench struct {
	env     *campaign.Environment
	cluster *cloudsim.Cluster
	ticks   int
}

func newQuoteBench(b *testing.B, env *campaign.Environment) *quoteBench {
	b.Helper()
	if env == nil {
		var err error
		env, err = campaign.NewEnvironment(campaign.EnvOptions{
			Seed: 1, Days: 2, TrainDays: 1, Predictor: campaign.PredictorConstant,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	q := &quoteBench{env: env}
	q.reset(b)
	return q
}

func (q *quoteBench) reset(b *testing.B) {
	b.Helper()
	c, err := q.env.NewCluster()
	if err != nil {
		b.Fatal(err)
	}
	q.cluster, q.ticks = c, 0
}

// tick advances the clock 67s, starting over on a fresh cluster (off the
// timer) before the quotes would run past the day of generated prices.
func (q *quoteBench) tick(b *testing.B) {
	if q.ticks++; q.ticks < 1200 {
		q.cluster.Clock().Sleep(67 * time.Second)
		return
	}
	b.StopTimer()
	q.reset(b)
	b.StartTimer()
}

// BenchmarkAvgPriceLastHour measures one Eq. 1 trailing-hour quote
// (cloudsim.Cluster.AvgPriceLastHour over the SoA store), cycling through
// the default pool.
func BenchmarkAvgPriceLastHour(b *testing.B) {
	q := newQuoteBench(b, nil)
	pool := q.env.Pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.cluster.AvgPriceLastHour(pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
		if i%len(pool) == len(pool)-1 {
			q.tick(b)
		}
	}
}

// BenchmarkSpotTuneDecide measures one spottune policy decision (Eq. 1–2
// over the default pool: a current price, a revocation prediction and a
// trailing-hour quote per member) against a real cluster.
func BenchmarkSpotTuneDecide(b *testing.B) {
	q := newQuoteBench(b, nil)
	pol, err := q.env.NewPolicy(policy.SpotTuneName, 1, policy.Params{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := policy.Context{
		Trial:      policy.TrialInfo{ID: "hp-0", MaxSteps: 1000},
		SecPerStep: func(string) float64 { return 1 },
		Tracer:     obs.Nop{},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Market = q.cluster
		if _, err := pol.Decide(ctx); err != nil {
			b.Fatal(err)
		}
		q.tick(b)
	}
}

// BenchmarkRequestSpotRejected measures the retriable spot rejections a
// scheduler retries on every tick: a full market (every type at its
// capacity of one) and a bid below the market price.
func BenchmarkRequestSpotRejected(b *testing.B) {
	q := newQuoteBench(b, nil)
	env := *q.env
	env.Catalog = env.Catalog.WithCapacity(1)
	full := newQuoteBench(b, &env)
	for _, name := range env.Pool {
		if _, err := full.cluster.RequestSpot(name, 1e9, nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		cluster  *cloudsim.Cluster
		maxPrice float64
		want     error
	}{
		{"capacity", full.cluster, 1e9, cloudsim.ErrCapacityUnavailable},
		{"price", q.cluster, 0, cloudsim.ErrPriceAboveMax},
	} {
		b.Run(tc.name, func(b *testing.B) {
			pool := env.Pool
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.cluster.RequestSpot(pool[i%len(pool)], tc.maxPrice, nil); !errors.Is(err, tc.want) {
					b.Fatalf("got %v, want %v", err, tc.want)
				}
			}
		})
	}
}

// campaignBenchEnv builds the shared fixture for the campaign benchmarks:
// a 16-trial LoR workload over a 4-day constant-predictor environment.
func campaignBenchEnv(b *testing.B) (*campaign.Environment, *Benchmark, Curves) {
	b.Helper()
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: 1, Days: 6, TrainDays: 2, Predictor: campaign.PredictorConstant,
	})
	if err != nil {
		b.Fatal(err)
	}
	bench, err := BenchmarkByName("LoR", WorkloadConfig{Seed: 1, Scale: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	return env, bench, bench.SyntheticCurves(1)
}

// benchConstPerf is a noise-free per-type seconds-per-step model for the
// controlled campaign fixture.
type benchConstPerf map[string]float64

func (p benchConstPerf) StepSeconds(it market.InstanceType, _ string, _ int) float64 {
	return p[it.Name]
}

// multiDayFixture is the static (read-only, reusable) part of the
// controlled multi-day campaign: catalog, flat two-market traces, grids.
type multiDayFixture struct {
	cat    *market.Catalog
	traces market.TraceSet
	grids  map[string]*market.Grid
	preds  map[string]revpred.Predictor
	start  time.Time
}

var mdFixture *multiDayFixture

func newMultiDayFixture(b testing.TB) *multiDayFixture {
	b.Helper()
	if mdFixture != nil {
		return mdFixture
	}
	start := campaign.DefaultStart()
	cat := market.MustNewCatalog([]market.InstanceType{
		{Name: "slow", CPUs: 2, MemoryGB: 8, OnDemandPrice: 0.1},
		{Name: "fast", CPUs: 16, MemoryGB: 64, OnDemandPrice: 0.8},
	})
	gridStart := start.Add(-2 * time.Hour)
	end := start.Add(14 * 24 * time.Hour)
	f := &multiDayFixture{
		cat: cat,
		traces: market.TraceSet{
			"slow": {Type: "slow", Records: []market.Record{{At: gridStart, Price: 0.02}}},
			"fast": {Type: "fast", Records: []market.Record{{At: gridStart, Price: 0.2}}},
		},
		grids: map[string]*market.Grid{},
		preds: map[string]revpred.Predictor{},
		start: start,
	}
	for _, name := range []string{"slow", "fast"} {
		it, _ := cat.Lookup(name)
		g, err := market.NewGrid(it, f.traces[name], gridStart, end)
		if err != nil {
			b.Fatal(err)
		}
		f.grids[name] = g
		f.preds[name] = revpred.ConstantPredictor(0)
	}
	mdFixture = f
	return f
}

// run executes one controlled multi-day campaign (8 slow trials on the flat
// two-market world — the paper's regime where Algorithm 1's polling loop
// spins tens of thousands of no-op turns) under the given mode.
func (f *multiDayFixture) run(b testing.TB, mode core.LoopMode) *core.Report {
	b.Helper()
	clk := simclock.NewVirtual(f.start)
	cluster, err := cloudsim.NewCluster(clk, f.cat, f.traces)
	if err != nil {
		b.Fatal(err)
	}
	perf := benchConstPerf{"slow": 32.0, "fast": 8.0}
	var trials []*trial.Replay
	const maxSteps, every = 12000, 100
	for i := 0; i < 8; i++ {
		var pts []earlycurve.MetricPoint
		for s := every; s <= maxSteps; s += every {
			pts = append(pts, earlycurve.MetricPoint{
				Step:  s,
				Value: 1/(0.05*float64(s)+1.2) + 0.1*float64(i+1),
			})
		}
		tr, err := trial.NewReplay(fmt.Sprintf("hp-%d", i), maxSteps, pts, perf, 10)
		if err != nil {
			b.Fatal(err)
		}
		trials = append(trials, tr)
	}
	pool := []string{"slow", "fast"}
	pol, err := policy.New(policy.SpotTuneName, policy.Params{
		Pool: pool, Seed: 7, RevProb: core.GridRevProb(f.grids, f.preds),
	})
	if err != nil {
		b.Fatal(err)
	}
	orch, err := core.NewPolicyOrchestrator(cluster, cloudsim.NewObjectStore(), pol, pool, trials, core.Config{
		Mode: mode, Theta: 0.7, MCnt: 2, StartupDelay: 30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := orch.Run()
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkCampaign measures one controlled multi-day SpotTune campaign
// under both scheduler loops. The event-driven loop's whole point is the
// loop_iters collapse — from one turn per PollInterval of virtual time to
// one per real scheduling event — and the wall-clock speedup that follows
// once the campaign is long enough for the polling loop to dominate.
func BenchmarkCampaign(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode core.LoopMode
	}{{"event", core.LoopEvent}, {"polling", core.LoopPolling}} {
		b.Run(mode.name, func(b *testing.B) {
			f := newMultiDayFixture(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := f.run(b, mode.mode)
				b.ReportMetric(rep.JCT.Hours(), "virtual_jct_hours")
				b.ReportMetric(float64(rep.LoopIterations), "loop_iters")
			}
		})
	}
}

// BenchmarkCampaignEnv measures one full synthetic-environment campaign (16
// trials, generated spot markets, constant predictor) under both loops —
// the realistic short-campaign regime, where shared work (EarlyCurve fits,
// Eq. 1-2 provisioning) bounds the achievable speedup.
func BenchmarkCampaignEnv(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode core.LoopMode
	}{{"event", core.LoopEvent}, {"polling", core.LoopPolling}} {
		b.Run(mode.name, func(b *testing.B) {
			env, bench, curves := campaignBenchEnv(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := env.RunSpotTune(bench, curves, campaign.Options{
					Theta: 0.7, Seed: uint64(i), Mode: mode.mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.JCT.Hours(), "virtual_jct_hours")
				b.ReportMetric(float64(rep.LoopIterations), "loop_iters")
			}
		})
	}
}

// BenchmarkCampaignUntraced / BenchmarkCampaignTraced are the flight
// recorder's overhead lane: the same synthetic-environment campaign with the
// no-op tracer (the default) and with a live recording. `make bench` feeds
// both through benchperf's ratio gate — traced/untraced must stay ≤ 1.05.
func BenchmarkCampaignUntraced(b *testing.B) {
	benchCampaignTrace(b, false)
}

func BenchmarkCampaignTraced(b *testing.B) {
	benchCampaignTrace(b, true)
}

func benchCampaignTrace(b *testing.B, traced bool) {
	env, bench, curves := campaignBenchEnv(b)
	var events int
	opt := campaign.Options{
		Theta: 0.7,
		Trace: traced,
		Inspect: func(d *campaign.RunDetail) error {
			if d.Trace != nil {
				events = d.Trace.Len()
			}
			return nil
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = uint64(i)
		if _, err := env.RunSpotTune(bench, curves, opt); err != nil {
			b.Fatal(err)
		}
	}
	if traced {
		b.ReportMetric(float64(events), "trace_events")
	}
}

// BenchmarkTraceExport measures turning a finished recording into its JSONL
// and Chrome trace_event forms — the cost a user pays only at write-out.
func BenchmarkTraceExport(b *testing.B) {
	env, bench, curves := campaignBenchEnv(b)
	var rec *obs.Recording
	_, err := env.RunSpotTune(bench, curves, campaign.Options{
		Theta: 0.7, Trace: true,
		Inspect: func(d *campaign.RunDetail) error { rec = d.Trace; return nil },
	})
	if err != nil || rec == nil {
		b.Fatalf("no recording (err=%v)", err)
	}
	for _, format := range []string{"jsonl", "chrome"} {
		b.Run(format, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := obs.WriteTrace(&buf, format, rec); err != nil {
					b.Fatal(err)
				}
				n = buf.Len()
			}
			b.ReportMetric(float64(rec.Len()), "events")
			b.ReportMetric(float64(n)/float64(rec.Len()), "bytes_per_event")
		})
	}
}

// BenchmarkCampaignSweep measures a 16-campaign θ/seed sweep through the
// campaign.Sweep worker pool — the many-campaign scenario the event-driven
// core exists for.
func BenchmarkCampaignSweep(b *testing.B) {
	env, bench, curves := campaignBenchEnv(b)
	thetas := []float64{0.25, 0.5, 0.75, 1.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tasks []campaign.Task
		for s := 0; s < 4; s++ {
			for _, theta := range thetas {
				theta, seed := theta, uint64(i*4+s)
				tasks = append(tasks, campaign.Task{
					Key: fmt.Sprintf("θ=%.2f/seed=%d", theta, seed),
					Run: func(*rand.Rand) (*core.Report, error) {
						return env.RunSpotTune(bench, curves, campaign.Options{Theta: theta, Seed: seed})
					},
				})
			}
		}
		res := campaign.Sweep(tasks, campaign.SweepOptions{Seed: uint64(i)})
		if err := campaign.FirstErr(res); err != nil {
			b.Fatal(err)
		}
		iters := 0
		for _, r := range res {
			iters += r.Report.LoopIterations
		}
		b.ReportMetric(float64(len(res)), "campaigns")
		b.ReportMetric(float64(iters)/float64(len(res)), "mean_loop_iters")
	}
}

// BenchmarkAblationPredictors compares Eq. 2 with no prediction, the
// session predictor, and the oracle.
func BenchmarkAblationPredictors(b *testing.B) {
	ctx := experiments.NewContext(experiments.Options{
		Seed: 1, Scale: 0.15, Quick: true, Workloads: []string{"LoR"},
	})
	if _, err := experiments.PredictorAblation(ctx); err != nil { // warm the lazy fixtures
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PredictorAblation(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Predictor == "oracle" {
				b.ReportMetric(r.FreeFrac, "oracle_free_frac")
			}
			if r.Predictor == "none" {
				b.ReportMetric(r.FreeFrac, "none_free_frac")
			}
		}
	}
}

// BenchmarkMatrixStreaming drives the streaming matrix runner over grids of
// increasing size (the replicate axis scales the cell count without adding
// specs). Beyond cells/s it reports the peak heap observed while streaming —
// the bounded-memory contract is that this metric stays flat between the
// 1k-cell and 100k-cell grids.
func BenchmarkMatrixStreaming(b *testing.B) {
	for _, cells := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			benchMatrixStreaming(b, cells)
		})
	}
}

func benchMatrixStreaming(b *testing.B, cells int) {
	m := scenario.Matrix{Specs: []scenario.Spec{{
		Name:      "bench",
		Regime:    "calm",
		Days:      2,
		TrainDays: 1,
		Pool:      []string{"r4.large", "m4.2xlarge"},
	}}}
	opt := scenario.Options{
		Seed:     1,
		Quick:    true,
		Workload: "LoR",
		Scale:    0.2,
		Policies: []string{"spottune", "cheapest-spot"},
	}
	reps := cells / len(opt.Policies)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var (
			peak uint64
			ms   runtime.MemStats
			seen int
		)
		sum, err := m.Stream(scenario.StreamOptions{
			Options:    opt,
			Replicates: reps,
			OnCell: func(scenario.Cell) error {
				seen++
				if seen%1024 == 0 {
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peak {
						peak = ms.HeapAlloc
					}
				}
				return nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if seen == 0 || peak == 0 {
			runtime.ReadMemStats(&ms)
			peak = ms.HeapAlloc
		}
		if want := reps * len(opt.Policies); sum.Cells != want {
			b.Fatalf("streamed %d cells, want %d", sum.Cells, want)
		}
		if sum.Violations != 0 {
			b.Fatalf("%d invariant violations in the streamed grid", sum.Violations)
		}
		b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
		b.ReportMetric(sum.Cost.Quantile(0.99), "cost-p99-usd")
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// serviceBenchPeak1k stashes the 1k-tenant sub-benchmark's peak heap (MB) so
// the 10k run can enforce the bounded-memory contract in-process: service
// working state is per shard and per in-flight slot, so a 10× tenant count
// must not cost more than 2× the heap.
var serviceBenchPeak1k float64

// BenchmarkServiceThroughput drives the sharded multi-tenant engine at 1k
// and 10k concurrent campaigns on a contended shared market and reports
// campaigns/s plus the peak heap observed while streaming results. `make
// service` exports these numbers to BENCH_service.json.
func BenchmarkServiceThroughput(b *testing.B) {
	for _, tenants := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			benchServiceThroughput(b, tenants)
		})
	}
}

func benchServiceThroughput(b *testing.B, tenants int) {
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed: 1, Days: 2, TrainDays: 1, Predictor: campaign.PredictorConstant,
	})
	if err != nil {
		b.Fatal(err)
	}
	bench, err := BenchmarkByName("LoR", WorkloadConfig{Seed: 1, Scale: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	curves := bench.SyntheticCurves(1)
	battery := service.DefaultBattery(tenants, 1)
	cfg := service.Config{
		Shards:         8,
		MaxInFlight:    8,
		Contention:     true,
		Capacity:       4,
		SurgeSlope:     0.5,
		SkipInvariants: true, // the battery lane audits; this lane measures
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var (
			peak uint64
			ms   runtime.MemStats
			seen int
		)
		cfg.OnResult = func(r service.Result) {
			if r.Err != nil {
				b.Fatalf("tenant %s: %v", r.Tenant.ID, r.Err)
			}
			seen++
			if seen%256 == 0 {
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
		sum, err := service.Run(env, bench, curves, battery, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if peak == 0 {
			runtime.ReadMemStats(&ms)
			peak = ms.HeapAlloc
		}
		if sum.Admitted != tenants || sum.Failed != 0 {
			b.Fatalf("summary %+v, want %d admitted", sum, tenants)
		}
		if len(sum.Capacity) != 0 {
			b.Fatalf("capacity oversubscription: %v", sum.Capacity)
		}
		peakMB := float64(peak) / (1 << 20)
		b.ReportMetric(peakMB, "peak-heap-MB")
		b.ReportMetric(sum.Cost.Quantile(0.99), "cost-p99-usd")
		switch tenants {
		case 1000:
			serviceBenchPeak1k = peakMB
		case 10000:
			// The flat-memory gate. Guarded so a filtered run of only the
			// 10k sub-benchmark still works.
			if serviceBenchPeak1k > 0 && peakMB > 2*serviceBenchPeak1k {
				b.Fatalf("peak heap %.1f MB at 10k tenants exceeds 2x the 1k figure (%.1f MB)",
					peakMB, serviceBenchPeak1k)
			}
		}
	}
	b.ReportMetric(float64(tenants)*float64(b.N)/b.Elapsed().Seconds(), "campaigns/s")
}
