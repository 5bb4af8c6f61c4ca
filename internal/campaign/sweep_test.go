package campaign

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spottune/internal/core"
	"spottune/internal/workload"
)

func TestSweepDeterministicOrderAndStreams(t *testing.T) {
	// Record the first draw of each task's rng; it must depend only on the
	// task index, and results must land at their task's index.
	const n = 20
	run := func() ([]SweepResult, []uint64) {
		draws := make([]uint64, n)
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = Task{
				Key: fmt.Sprintf("t%d", i),
				Run: func(rng *rand.Rand) (*core.Report, error) {
					draws[i] = rng.Uint64()
					return &core.Report{TotalSteps: i}, nil
				},
			}
		}
		return Sweep(tasks, SweepOptions{Workers: 4, Seed: 99}), draws
	}
	res1, draws1 := run()
	res2, draws2 := run()
	for i := 0; i < n; i++ {
		if res1[i].Key != fmt.Sprintf("t%d", i) || res1[i].Report.TotalSteps != i {
			t.Fatalf("result %d out of order: %+v", i, res1[i])
		}
		if draws1[i] != draws2[i] {
			t.Fatalf("task %d rand stream not deterministic: %d vs %d", i, draws1[i], draws2[i])
		}
	}
	for i := range res1 {
		if res1[i].Err != nil {
			t.Fatal(res1[i].Err)
		}
		if res2[i].Report.TotalSteps != res1[i].Report.TotalSteps {
			t.Fatalf("re-run diverged at %d", i)
		}
	}
}

func TestSweepErrorAndPanicIsolation(t *testing.T) {
	boom := errors.New("boom")
	tasks := []Task{
		{Key: "ok", Run: func(*rand.Rand) (*core.Report, error) { return &core.Report{}, nil }},
		{Key: "fails", Run: func(*rand.Rand) (*core.Report, error) { return nil, boom }},
		{Key: "panics", Run: func(*rand.Rand) (*core.Report, error) { panic("kaput") }},
	}
	res := Sweep(tasks, SweepOptions{Workers: 3})
	if res[0].Err != nil || res[0].Report == nil {
		t.Fatalf("healthy task corrupted: %+v", res[0])
	}
	if !errors.Is(res[1].Err, boom) {
		t.Fatalf("error not propagated: %v", res[1].Err)
	}
	if res[2].Err == nil || res[2].Report != nil {
		t.Fatalf("panic not captured: %+v", res[2])
	}
	if err := FirstErr(res); !errors.Is(err, boom) {
		t.Fatalf("FirstErr = %v, want first failure in task order", err)
	}
	if err := FirstErr(res[:1]); err != nil {
		t.Fatalf("FirstErr on healthy prefix = %v", err)
	}
	if got := len(Sweep(nil, SweepOptions{})); got != 0 {
		t.Fatalf("empty sweep returned %d results", got)
	}
}

// TestSweepMatchesSequentialCampaigns: running real campaigns through the
// worker pool must produce byte-identical reports to sequential execution —
// the environment is shared read-only and every run builds its own cluster.
func TestSweepMatchesSequentialCampaigns(t *testing.T) {
	env, err := NewEnvironment(EnvOptions{Seed: 11, Days: 5, TrainDays: 2, Predictor: PredictorConstant})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.SuiteByName("LoR", workload.Config{Seed: 11, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	curves := bench.SyntheticCurves(11)
	thetas := []float64{0.4, 0.7, 1.0}

	var seq []*core.Report
	for _, theta := range thetas {
		rep, err := env.RunSpotTune(bench, curves, Options{Theta: theta, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, rep)
	}

	var launched atomic.Int32
	tasks := make([]Task, len(thetas))
	for i, theta := range thetas {
		theta := theta
		tasks[i] = Task{
			Key: fmt.Sprintf("theta=%.1f", theta),
			Run: func(*rand.Rand) (*core.Report, error) {
				launched.Add(1)
				return env.RunSpotTune(bench, curves, Options{Theta: theta, Seed: 11})
			},
		}
	}
	res := Sweep(tasks, SweepOptions{Workers: 3, Seed: 11})
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	if launched.Load() != int32(len(thetas)) {
		t.Fatalf("launched %d tasks, want %d", launched.Load(), len(thetas))
	}
	for i := range thetas {
		got, want := res[i].Report, seq[i]
		if got.NetCost != want.NetCost || got.JCT != want.JCT ||
			got.TotalSteps != want.TotalSteps || got.Best != want.Best ||
			got.Deployments != want.Deployments {
			t.Errorf("theta=%.1f: parallel report diverged from sequential:\n got %+v\nwant %+v",
				thetas[i], got, want)
		}
		for j := range got.Ranked {
			if got.Ranked[j] != want.Ranked[j] {
				t.Errorf("theta=%.1f: ranking diverged", thetas[i])
				break
			}
		}
	}
}

// TestFanOrderWindowAndState pins the pool contract: emit sees every job in
// job order however the workers interleave; dispatch never runs more than
// window jobs ahead of emission; each worker's state is used by one job at a
// time (the unsynchronized counter trips -race otherwise) and the states'
// job counts add up; a panic becomes a *PanicError for that job only.
func TestFanOrderWindowAndState(t *testing.T) {
	const n, workers, window = 200, 4, 8
	type state struct{ jobs int }
	var (
		mu     sync.Mutex
		states []*state
	)
	var started, emitted atomic.Int32
	next := 0
	err := Fan(func(yield func(int) bool) {
		for i := 0; i < n; i++ {
			if !yield(i) {
				return
			}
		}
	}, workers, window, func() *state {
		s := &state{}
		mu.Lock()
		states = append(states, s)
		mu.Unlock()
		return s
	}, func(s *state, i int) (int, error) {
		if ahead := started.Add(1) - emitted.Load(); ahead > window {
			t.Errorf("job %d dispatched %d ahead of emission (window %d)", i, ahead, window)
		}
		s.jobs++
		if i%7 == 0 {
			time.Sleep(100 * time.Microsecond) // skew completion order
		}
		if i == 13 {
			panic("kaput")
		}
		return i * i, nil
	}, func(i, sq int, err error) error {
		if i != next {
			t.Fatalf("emitted job %d, want %d", i, next)
		}
		next++
		emitted.Add(1)
		var pe *PanicError
		switch {
		case i == 13:
			if !errors.As(err, &pe) || pe.Value != "kaput" {
				t.Fatalf("job 13: err %v, want a recovered panic", err)
			}
		case err != nil || sq != i*i:
			t.Fatalf("job %d: got %d, %v", i, sq, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("emitted %d jobs, want %d", next, n)
	}
	total := 0
	for _, s := range states {
		total += s.jobs
	}
	if len(states) > workers || total != n {
		t.Fatalf("%d worker states ran %d jobs, want <= %d states and %d jobs", len(states), total, workers, n)
	}
}

// TestFanEmitErrorStopsDispatch pins first-error semantics: the error emit
// returns is Fan's result, nothing is emitted after it, and dispatch stops
// within a window of the failing job.
func TestFanEmitErrorStopsDispatch(t *testing.T) {
	boom := errors.New("boom")
	const workers, window, failAt = 2, 4, 10
	var ran atomic.Int32
	emitted := 0
	err := Fan(func(yield func(int) bool) {
		for i := 0; ; i++ { // unbounded: only the error ends it
			if !yield(i) {
				return
			}
		}
	}, workers, window, func() struct{} { return struct{}{} }, func(_ struct{}, i int) (int, error) {
		ran.Add(1)
		return i, nil
	}, func(i, _ int, _ error) error {
		emitted++
		if i == failAt {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Fan returned %v, want boom", err)
	}
	if emitted != failAt+1 {
		t.Fatalf("emitted %d jobs, want %d", emitted, failAt+1)
	}
	if r := ran.Load(); r > failAt+1+window {
		t.Fatalf("%d jobs ran; dispatch should stop within a window of job %d", r, failAt)
	}
}
