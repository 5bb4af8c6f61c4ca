package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/earlycurve"
	"spottune/internal/search"
	"spottune/internal/trial"
)

// runTuner executes one campaign on a fresh world under the named tuner.
func runTuner(t *testing.T, spiky bool, pool []string, tunerName string, n, maxSteps, every int, cfg Config) (*Report, []*trial.Replay) {
	t.Helper()
	w := newWorld(t, spiky)
	trials := mkTrials(t, w, n, maxSteps, every)
	tun, err := search.New(tunerName, search.Params{Theta: cfg.Theta, MCnt: cfg.MCnt})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Tuner = tun
	orch, err := w.spotTune(t, pool, 7, trials, c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := orch.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, trials
}

// assertSelectionSane replays the invariant checker's selection rules on a
// report: the ranking is a permutation of the predicted set ascending by
// prediction, and Best/Top are drawn from it.
func assertSelectionSane(t *testing.T, rep *Report) {
	t.Helper()
	if len(rep.Ranked) != len(rep.PredictedFinals) {
		t.Fatalf("%d ranked vs %d predictions", len(rep.Ranked), len(rep.PredictedFinals))
	}
	seen := map[string]bool{}
	for i, id := range rep.Ranked {
		if seen[id] {
			t.Fatalf("trial %s ranked twice", id)
		}
		seen[id] = true
		if _, ok := rep.PredictedFinals[id]; !ok {
			t.Fatalf("ranked trial %s has no prediction", id)
		}
		if i > 0 && rep.PredictedFinals[id] < rep.PredictedFinals[rep.Ranked[i-1]] {
			t.Fatalf("ranking not ascending at %s", id)
		}
	}
	if rep.Best != "" && !seen[rep.Best] {
		t.Fatalf("best %q absent from ranking", rep.Best)
	}
	for _, id := range rep.Top {
		if !seen[id] {
			t.Fatalf("top trial %q absent from ranking", id)
		}
	}
}

// TestTunerExplicitSpotTuneMatchesDefault: configuring the spottune tuner
// explicitly must be indistinguishable from the nil-Tuner default — the
// refactoring contract that Config.Tuner is a generalization, not a fork.
func TestTunerExplicitSpotTuneMatchesDefault(t *testing.T) {
	cfg := orchCfg(0.7)

	wa := newWorld(t, true)
	trialsA := mkTrials(t, wa, 4, 200, 20)
	orchA, err := wa.spotTune(t, bothTypes, 7, trialsA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repA, err := orchA.Run()
	if err != nil {
		t.Fatal(err)
	}

	repB, trialsB := runTuner(t, true, []string{"slow", "fast"}, search.SpotTuneName, 4, 200, 20, cfg)
	if !reflect.DeepEqual(repA, repB) {
		t.Errorf("explicit spottune tuner diverges from default:\n%+v\nvs\n%+v", repA, repB)
	}
	for i := range trialsA {
		if a, b := trialsA[i].CompletedSteps(), trialsB[i].CompletedSteps(); a != b {
			t.Errorf("trial %s steps %d vs %d", trialsA[i].ID(), a, b)
		}
	}
	if repA.Tuner != search.SpotTuneName {
		t.Errorf("report tuner %q", repA.Tuner)
	}
}

// TestTunerHalvingEliminatesAndSaves: successive halving must rank every
// trial, train only its final survivors deep, and undercut the full-train
// cost ceiling on the same world.
func TestTunerHalvingEliminatesAndSaves(t *testing.T) {
	cfg := orchCfg(0.7)
	// Curves that never plateau under the default tolerance would train
	// forever; the fixture's rational curves converge, so raise the
	// ceiling high enough that rung budgets, not the plateau, decide.
	rep, trials := runTuner(t, false, []string{"slow", "fast"}, search.HalvingName, 6, 300, 10, cfg)
	assertSelectionSane(t, rep)
	if rep.Tuner != search.HalvingName {
		t.Fatalf("report tuner %q", rep.Tuner)
	}
	if len(rep.Top) == 0 || len(rep.Top) >= len(trials) {
		t.Fatalf("halving kept %d of %d trials", len(rep.Top), len(trials))
	}
	top := map[string]bool{}
	for _, id := range rep.Top {
		top[id] = true
	}
	deepest := 0
	for _, tr := range trials {
		if top[tr.ID()] {
			if deepest < tr.CompletedSteps() {
				deepest = tr.CompletedSteps()
			}
			continue
		}
		if tr.CompletedSteps() >= tr.MaxSteps() {
			t.Errorf("eliminated trial %s trained to max anyway", tr.ID())
		}
	}
	if deepest == 0 {
		t.Fatal("no survivor trained past rung one")
	}

	full, _ := runTuner(t, false, []string{"slow", "fast"}, search.FullTrainName, 6, 300, 10, cfg)
	if rep.NetCost >= full.NetCost {
		t.Errorf("halving cost $%.4f did not undercut the full-train ceiling $%.4f",
			rep.NetCost, full.NetCost)
	}
	if rep.TotalSteps >= full.TotalSteps {
		t.Errorf("halving ran %d steps vs full-train %d", rep.TotalSteps, full.TotalSteps)
	}
}

// TestTunerHyperbandSurvivesRevocationChurn: the rung-heavy hyperband
// schedule on the spiky market exercises checkpoint/restore across many
// revocations and must still finish with sane selection outputs.
func TestTunerHyperbandSurvivesRevocationChurn(t *testing.T) {
	cfg := orchCfg(0.7)
	// Pool restricted to the spiky market so revocations are guaranteed.
	rep, _ := runTuner(t, true, []string{"slow"}, search.HyperbandName, 6, 900, 50, cfg)
	assertSelectionSane(t, rep)
	if rep.Notices == 0 {
		t.Fatal("spiky fixture produced no notices; churn test is vacuous")
	}
	if rep.Best == "" {
		t.Fatal("hyperband selected nothing")
	}
	if rep.Deployments <= rep.Notices {
		t.Fatalf("deployments %d vs notices %d — every notice redeploys", rep.Deployments, rep.Notices)
	}
}

// TestTunerFullTrainIsCostCeiling: full-train runs every trial to max steps
// (or its plateau) and its observed finals are the predictions.
func TestTunerFullTrainIsCostCeiling(t *testing.T) {
	cfg := orchCfg(0.7)
	rep, trials := runTuner(t, false, []string{"slow", "fast"}, search.FullTrainName, 3, 100, 10, cfg)
	assertSelectionSane(t, rep)
	for _, tr := range trials {
		// orchCfg leaves the convergence knobs zero, so the engine ran
		// with the defaulted window/tolerance.
		done := tr.CompletedSteps() >= tr.MaxSteps() || tr.Plateaued(8, 5e-4)
		if !done {
			t.Errorf("trial %s stopped at %d/%d without a plateau",
				tr.ID(), tr.CompletedSteps(), tr.MaxSteps())
		}
		p, ok := tr.LastPoint()
		if !ok {
			t.Fatalf("trial %s observed nothing", tr.ID())
		}
		if got := rep.PredictedFinals[tr.ID()]; got != p.Value {
			t.Errorf("trial %s predicted %v, want observed final %v", tr.ID(), got, p.Value)
		}
	}
}

// mkSparseTrial builds a trial whose curve has points only at the given
// steps (the last must equal maxSteps).
func mkSparseTrial(t *testing.T, w *testWorld, id string, maxSteps int, steps []int, val float64) *trial.Replay {
	t.Helper()
	var pts []earlycurve.MetricPoint
	for i, s := range steps {
		pts = append(pts, earlycurve.MetricPoint{Step: s, Value: val + 0.1*float64(len(steps)-i)})
	}
	tr, err := trial.NewReplay(id, maxSteps, pts, w.perf, 10)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPredictionFallbacksUnderBlackout covers the revocation-heavy
// prediction fallbacks end to end through a capacity-blackout scenario: the
// campaign opens under a region-wide spot blackout (requests rejected,
// retries paced on the poll grid), and the curves are so sparse that after
// the θ-truncated explore phase one trial has an unfittable two-point curve
// (predicted last × 1.05) and another observed nothing at all (predicted
// +Inf, ranked last).
func TestPredictionFallbacksUnderBlackout(t *testing.T) {
	w := newWorld(t, false)
	if err := w.cluster.AddBlackout(cloudsim.Blackout{
		From: t0,
		To:   t0.Add(45 * time.Minute),
	}); err != nil {
		t.Fatal(err)
	}
	// θ=0.7 over 100 steps → explore limit 70.
	// "thin" observes steps 30 and 60 — two points, below the staged fit's
	// minimum, so PredictFinal errors and the ×1.05 fallback fires.
	// "blind" has its first point at step 80 — past the explore limit, so
	// the prediction phase sees an empty curve.
	thin := mkSparseTrial(t, w, "thin-hp", 100, []int{30, 60, 100}, 0.4)
	blind := mkSparseTrial(t, w, "blind-hp", 100, []int{80, 100}, 0.2)
	cfg := orchCfg(0.7)
	cfg.MCnt = 1
	orch, err := w.spotTune(t, bothTypes, 7, []*trial.Replay{thin, blind}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := orch.Run()
	if err != nil {
		t.Fatal(err)
	}

	// The observed prefix at 70 steps ends with the step-60 point
	// (value 0.4 + 0.1·(3−1) = 0.6), inflated by the 5% pessimism factor.
	wantThin := 0.6 * 1.05
	if got := rep.PredictedFinals["thin-hp"]; math.Abs(got-wantThin) > 1e-9 {
		t.Errorf("thin trial predicted %v, want last-point fallback %v", got, wantThin)
	}
	if got := rep.PredictedFinals["blind-hp"]; !math.IsInf(got, 1) {
		t.Errorf("blind trial predicted %v, want +Inf", got)
	}
	if len(rep.Ranked) != 2 || rep.Ranked[1] != "blind-hp" {
		t.Errorf("ranked %v — the unobserved trial must rank last", rep.Ranked)
	}
	assertSelectionSane(t, rep)
	// The blackout really gated the campaign: nothing deployed during the
	// first 45 minutes, so completion time reflects the stall.
	if rep.JCT < 45*time.Minute {
		t.Errorf("JCT %v shorter than the opening blackout", rep.JCT)
	}
}

// badTuner emits directives the engine must reject.
type badTuner struct {
	directive Directive
	emitted   bool
}

type Directive = search.Directive

func (b *badTuner) Name() string { return "bad" }
func (b *badTuner) Next(search.State) (search.Round, bool) {
	if b.emitted {
		return search.Round{}, false
	}
	b.emitted = true
	return search.Round{Directives: []Directive{b.directive, b.directive}}, true
}
func (b *badTuner) Finish(search.State) search.Outcome { return search.Outcome{} }

// TestRunRejectsMalformedRounds: unknown trial IDs and duplicate directives
// are tuner bugs the engine surfaces instead of silently mangling.
func TestRunRejectsMalformedRounds(t *testing.T) {
	for name, d := range map[string]Directive{
		"unknown trial": {TrialID: "nope", StepLimit: 10},
		"duplicate":     {TrialID: idFor(0), StepLimit: 10},
	} {
		w := newWorld(t, false)
		trials := mkTrials(t, w, 2, 50, 10)
		cfg := orchCfg(0.7)
		cfg.Tuner = &badTuner{directive: d}
		orch, err := w.spotTune(t, bothTypes, 7, trials, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := orch.Run(); err == nil {
			t.Errorf("%s round accepted", name)
		}
	}
}
