package scenario

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"spottune/internal/policy"
	"spottune/internal/search"
	"spottune/internal/stats"
)

// streamAll collects every streamed cell plus the summary.
func streamAll(t *testing.T, m Matrix, opt StreamOptions) ([]Cell, *StreamSummary) {
	t.Helper()
	var cells []Cell
	opt.OnCell = func(c Cell) error {
		cells = append(cells, c)
		return nil
	}
	sum, err := m.Stream(opt)
	if err != nil {
		t.Fatal(err)
	}
	return cells, sum
}

// TestMetamorphicStreamEquivalence: results must not depend on the worker
// count. On seeded random scenario specs, a one-worker stream and a
// four-worker stream (per-worker fit memos and perf caches, out-of-order
// completion) must produce the same cells in the same order — costs, JCT
// and refunds to the last bit, winners, rankings, decision counts and
// invariant audits — and byte-identical CSVs.
func TestMetamorphicStreamEquivalence(t *testing.T) {
	iters := 3
	if testing.Short() {
		iters = 1
	}
	rng := rand.New(rand.NewPCG(0x57e4, 0))
	for i := 0; i < iters; i++ {
		// Two random specs per round (unique names), a random tuner pick,
		// and a random policy subset.
		specA, specB := randomSpec(rng), randomSpec(rng)
		specA.Name, specB.Name = fmt.Sprintf("meta-a%d", i), fmt.Sprintf("meta-b%d", i)
		m := Matrix{Specs: []Spec{specA, specB}}
		opt := quickOpts()
		opt.Seed = rng.Uint64()%500 + 1
		opt.Policies = []string{policy.SpotTuneName, policy.CheapestName, policy.OnDemandName}[:2+rng.IntN(2)]
		opt.Tuners = []string{search.SpotTuneName}
		if rng.IntN(2) == 0 {
			opt.Tuners = append(opt.Tuners, search.HalvingName)
		}

		serial, _ := streamAll(t, m, StreamOptions{Options: opt, Workers: 1})
		parallel, _ := streamAll(t, m, StreamOptions{Options: opt, Workers: 4})

		if len(parallel) != len(serial) {
			t.Fatalf("round %d: %d cells on 4 workers vs %d on 1", i, len(parallel), len(serial))
		}
		for j, want := range serial {
			got := parallel[j]
			if got.Scenario != want.Scenario || got.Tuner != want.Tuner || got.Policy != want.Policy {
				t.Fatalf("round %d cell %d: (%s,%s,%s) vs serial (%s,%s,%s)", i, j,
					got.Scenario, got.Tuner, got.Policy, want.Scenario, want.Tuner, want.Policy)
			}
			if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
				math.Float64bits(got.JCTHours) != math.Float64bits(want.JCTHours) ||
				math.Float64bits(got.RefundFrac) != math.Float64bits(want.RefundFrac) {
				t.Errorf("round %d cell %d (%s/%s/%s): economics diverge: cost %x vs %x, jct %x vs %x",
					i, j, got.Scenario, got.Tuner, got.Policy,
					math.Float64bits(got.Cost), math.Float64bits(want.Cost),
					math.Float64bits(got.JCTHours), math.Float64bits(want.JCTHours))
			}
			if got.Report.Best != want.Report.Best {
				t.Errorf("round %d cell %d: winner %q vs %q", i, j, got.Report.Best, want.Report.Best)
			}
			if !slices.Equal(got.Report.Ranked, want.Report.Ranked) {
				t.Errorf("round %d cell %d: ranking %v vs %v", i, j, got.Report.Ranked, want.Report.Ranked)
			}
			if got.Deployments != want.Deployments || got.Notices != want.Notices ||
				got.OnDemandDeployments != want.OnDemandDeployments {
				t.Errorf("round %d cell %d: decision counts diverge", i, j)
			}
			if len(got.Violations) != len(want.Violations) {
				t.Errorf("round %d cell %d: %d violations on 4 workers vs %d on 1",
					i, j, len(got.Violations), len(want.Violations))
			}
		}
		// The rendered CSVs must also agree byte for byte.
		var a, b bytes.Buffer
		if err := (&Result{Cells: serial}).WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := (&Result{Cells: parallel}).WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("round %d: 4-worker CSV differs from 1-worker CSV", i)
		}
	}
}

// TestStreamReplicatesAndSummary exercises the seed axis: replicate 0 is the
// one-replicate grid bit for bit, later replicates are present in order with
// distinct seeds actually changing outcomes, and the summary sketches equal
// a post-hoc aggregation of the per-cell values (streaming and CSV
// aggregation cannot disagree).
func TestStreamReplicatesAndSummary(t *testing.T) {
	specs, err := SpecsByName([]string{"baseline", "calm"})
	if err != nil {
		t.Fatal(err)
	}
	m := Matrix{Specs: specs}
	opt := quickOpts()
	opt.Policies = []string{policy.SpotTuneName, policy.CheapestName}
	const reps = 3
	cells, sum := streamAll(t, m, StreamOptions{Options: opt, Replicates: reps, Workers: 3})

	perSpec := len(opt.Policies) // one tuner
	if want := len(specs) * reps * perSpec; len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	if sum.Cells != len(cells) {
		t.Fatalf("summary counts %d cells, emitted %d", sum.Cells, len(cells))
	}
	// Emission order: spec-major, then replicate, tuner, policy.
	idx := 0
	for _, s := range specs {
		for r := 0; r < reps; r++ {
			for _, p := range opt.Policies {
				c := cells[idx]
				if c.Scenario != s.Name || c.Replicate != r || c.Policy != p {
					t.Fatalf("cell %d: got (%s, rep %d, %s), want (%s, rep %d, %s)",
						idx, c.Scenario, c.Replicate, c.Policy, s.Name, r, p)
				}
				idx++
			}
		}
	}
	// Replicate 0 must equal a one-replicate stream of the same grid.
	single, _ := streamAll(t, m, StreamOptions{Options: opt, Replicates: 1, Workers: 3})
	li := 0
	for _, c := range cells {
		if c.Replicate != 0 {
			continue
		}
		want := single[li]
		li++
		if c.Scenario != want.Scenario || c.Policy != want.Policy ||
			math.Float64bits(c.Cost) != math.Float64bits(want.Cost) {
			t.Errorf("replicate 0 cell %s/%s diverges from the one-replicate grid", c.Scenario, c.Policy)
		}
	}
	if li != len(single) {
		t.Fatalf("matched %d replicate-0 cells, the one-replicate grid has %d", li, len(single))
	}
	// Different replicates must actually explore different seeds.
	varied := false
	for _, c := range cells {
		if c.Replicate == 0 {
			continue
		}
		for _, c0 := range cells {
			if c0.Replicate == 0 && c0.Scenario == c.Scenario && c0.Policy == c.Policy &&
				math.Float64bits(c0.Cost) != math.Float64bits(c.Cost) {
				varied = true
			}
		}
	}
	if !varied {
		t.Error("every replicate produced identical costs; seed axis is not wired")
	}
	// Summary == post-hoc aggregation of the per-cell column.
	recost := stats.NewQuantileSketch(stats.DefaultSketchAlpha)
	for _, c := range cells {
		recost.Add(c.Cost)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if math.Float64bits(sum.Cost.Quantile(q)) != math.Float64bits(recost.Quantile(q)) {
			t.Errorf("q=%v: streamed %v vs re-aggregated %v", q, sum.Cost.Quantile(q), recost.Quantile(q))
		}
	}
	if sum.Violations != 0 {
		t.Errorf("%d invariant violations on a healthy streamed grid", sum.Violations)
	}
}

// panicPolicyName is registered only inside the child process of
// TestStreamContainsPanickingCell, so no other test sees it.
const panicPolicyName = "scenario.test/panics"

// panicPolicy panics on its first decision.
type panicPolicy struct{}

func (panicPolicy) Name() string { return panicPolicyName }

func (panicPolicy) Decide(policy.Context) (policy.Request, error) {
	panic("injected decide panic")
}

// TestStreamContainsPanickingCell: a campaign that panics must come back as
// an error naming its cell from both Stream and Run, not kill the process.
// The test re-runs itself in a child process that registers the panicking
// policy — registration is global, and the rest of the suite runs the full
// registry — and requires the child to exit cleanly.
func TestStreamContainsPanickingCell(t *testing.T) {
	const childEnv = "SPOTTUNE_SCENARIO_PANIC_CHILD"
	if os.Getenv(childEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestStreamContainsPanickingCell$", "-test.count=1")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child process failed: %v\n%s", err, out)
		}
		return
	}
	policy.Register(panicPolicyName, "panics in Decide", func(policy.Params) (policy.Policy, error) {
		return panicPolicy{}, nil
	})
	specs, err := SpecsByName([]string{"baseline"})
	if err != nil {
		t.Fatal(err)
	}
	m := Matrix{Specs: specs}
	opt := quickOpts()
	opt.Policies = []string{policy.SpotTuneName, panicPolicyName, policy.CheapestName}
	check := func(runner string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: panicking cell returned no error", runner)
		}
		if msg := err.Error(); !strings.Contains(msg, "baseline/spottune/"+panicPolicyName) ||
			!strings.Contains(msg, "panicked") {
			t.Errorf("%s: error does not name the panicking cell: %v", runner, err)
		}
	}
	// A second spec keeps the world builder busy when the first block's
	// cell panics; it must stop with the run.
	calm := specs[0]
	calm.Name, calm.Regime = "calm", "calm"
	m.Specs = append(m.Specs, calm)
	before := runtime.NumGoroutine()
	_, err = m.Stream(StreamOptions{Options: opt, Workers: 2})
	check("Stream", err)
	settleGoroutines(t, before)
	_, err = m.Run(opt)
	check("Run", err)
	settleGoroutines(t, before)
}

// settleGoroutines fails the test unless the goroutine count falls back to
// before within a second: no world builder or worker outlives Stream.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > before; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("%d goroutines after Stream returned, %d before", n, before)
	}
}

// TestStreamBuildErrorInLaterSpec: a world that fails to build after the
// earlier specs' cells have streamed ends the run with that build's error,
// with every earlier cell emitted and no builder left running.
func TestStreamBuildErrorInLaterSpec(t *testing.T) {
	specs, err := SpecsByName([]string{"baseline", "calm", "volatile"})
	if err != nil {
		t.Fatal(err)
	}
	// Spec.Validate leaves predictor kinds to the environment build, so an
	// unknown kind is a build error that validation does not pre-empt.
	specs[1].Predictor = "no-such-predictor"
	opt := quickOpts()
	opt.Policies = []string{policy.SpotTuneName, policy.CheapestName}
	before := runtime.NumGoroutine()
	var emitted []string
	_, err = Matrix{Specs: specs}.Stream(StreamOptions{Options: opt, Workers: 2, OnCell: func(c Cell) error {
		emitted = append(emitted, c.Scenario)
		return nil
	}})
	if err == nil {
		t.Fatal("unbuildable spec accepted")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "scenario: calm: ") || !strings.Contains(msg, `unknown predictor kind "no-such-predictor"`) {
		t.Errorf("build error = %v, want the calm world's predictor error", err)
	}
	if want := []string{"baseline", "baseline"}; !slices.Equal(emitted, want) {
		t.Errorf("emitted cells of %v, want %v", emitted, want)
	}
	settleGoroutines(t, before)
}

// TestStreamFailingCellStopsBuilder: a cell error in the first block stops
// the run with that error while later worlds are still to build, and the
// builder exits with the run.
func TestStreamFailingCellStopsBuilder(t *testing.T) {
	specs, err := SpecsByName([]string{"baseline", "calm", "volatile", "crunch"})
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOpts()
	opt.Policies = []string{policy.SpotTuneName, policy.CheapestName}
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2} {
		cells := 0
		_, err = Matrix{Specs: specs}.Stream(StreamOptions{Options: opt, Workers: workers, OnCell: func(c Cell) error {
			cells++
			return fmt.Errorf("consumer rejects %s", c.Scenario)
		}})
		if err == nil || !strings.Contains(err.Error(), "consumer rejects baseline") {
			t.Errorf("workers=%d: Stream error = %v, want the first cell's", workers, err)
		}
		if cells != 1 {
			t.Errorf("workers=%d: %d cells emitted after the first failed", workers, cells-1)
		}
		settleGoroutines(t, before)
	}
}

// TestStreamValidatesBeforeBuilding: an unknown workload or pool member in a
// later spec, or an unknown matrix workload, is rejected before any world is
// built or any cell is emitted.
func TestStreamValidatesBeforeBuilding(t *testing.T) {
	specs, err := SpecsByName([]string{"baseline", "calm"})
	if err != nil {
		t.Fatal(err)
	}
	badWorkload := slices.Clone(specs)
	badWorkload[1].Workload = "VGG"
	badPool := slices.Clone(specs)
	badPool[1].Pool = []string{"r4.large", "z9.huge"}
	badDefault := quickOpts()
	badDefault.Workload = "VGG"
	for name, run := range map[string]struct {
		specs []Spec
		opt   Options
	}{
		"spec workload":   {badWorkload, quickOpts()},
		"spec pool":       {badPool, quickOpts()},
		"matrix workload": {specs, badDefault},
	} {
		cells := 0
		_, err := Matrix{Specs: run.specs}.Stream(StreamOptions{Options: run.opt, OnCell: func(Cell) error {
			cells++
			return nil
		}})
		if err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("%s: Stream error = %v, want a validation error", name, err)
		}
		if cells != 0 {
			t.Errorf("%s: %d cells emitted before the invalid spec was rejected", name, cells)
		}
	}
}
