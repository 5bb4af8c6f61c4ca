package core

import (
	"math"
	"testing"
	"time"

	"spottune/internal/trial"
)

// runGolden executes the same campaign twice — once with the discrete-event
// loop, once with the legacy polling loop — on independent but identically
// seeded worlds, and returns both reports plus both trial sets.
func runGolden(t *testing.T, spiky bool, pool []string, n, maxSteps, every int, cfg Config) (ev, poll *Report, evTrials, pollTrials []*trial.Replay) {
	t.Helper()
	run := func(mode LoopMode) (*Report, []*trial.Replay) {
		w := newWorld(t, spiky)
		trials := mkTrials(t, w, n, maxSteps, every)
		c := cfg
		c.Mode = mode
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
	ev, evTrials = run(LoopEvent)
	poll, pollTrials = run(LoopPolling)
	return ev, poll, evTrials, pollTrials
}

// assertGoldenEquivalent checks that the event-driven report matches the
// polling report up to poll-quantization: identical rankings, selections and
// per-trial step counts, with time/cost differing by at most one poll tick
// per scheduling transition.
func assertGoldenEquivalent(t *testing.T, ev, poll *Report, evTrials, pollTrials []*trial.Replay, cfg Config) {
	t.Helper()
	if len(ev.Ranked) != len(poll.Ranked) {
		t.Fatalf("ranking sizes differ: %d vs %d", len(ev.Ranked), len(poll.Ranked))
	}
	for i := range ev.Ranked {
		if ev.Ranked[i] != poll.Ranked[i] {
			t.Errorf("ranking diverges at %d: event %v vs polling %v", i, ev.Ranked, poll.Ranked)
			break
		}
	}
	if ev.Best != poll.Best {
		t.Errorf("best differs: event %q vs polling %q", ev.Best, poll.Best)
	}
	if len(ev.Top) != len(poll.Top) {
		t.Errorf("top sets differ: %v vs %v", ev.Top, poll.Top)
	}
	for i := range evTrials {
		if e, p := evTrials[i].CompletedSteps(), pollTrials[i].CompletedSteps(); e != p {
			t.Errorf("trial %s completed %d steps under events, %d under polling",
				evTrials[i].ID(), e, p)
		}
	}
	// The polling loop detects each transition up to one PollInterval late,
	// so JCT may drift by one tick per deployment/notice; the event loop is
	// never slower.
	slack := time.Duration(poll.Deployments+poll.Notices+2) * cfg.PollInterval
	if diff := (poll.JCT - ev.JCT); diff < -slack || diff > slack {
		t.Errorf("JCT diverges beyond quantization: event %v vs polling %v (slack %v)",
			ev.JCT, poll.JCT, slack)
	}
	if poll.NetCost > 0 {
		if rel := math.Abs(ev.NetCost-poll.NetCost) / poll.NetCost; rel > 0.05 {
			t.Errorf("net cost diverges %.1f%%: event %.6f vs polling %.6f",
				100*rel, ev.NetCost, poll.NetCost)
		}
	}
	if lost := poll.TotalSteps - ev.TotalSteps; lost < -50 || lost > 50 {
		t.Errorf("step accounting diverges: event %d vs polling %d", ev.TotalSteps, poll.TotalSteps)
	}
}

// TestGoldenEventMatchesPollingFlat: on a calm market the two loops must
// agree on everything that matters, and the event loop must do an order of
// magnitude fewer scheduler turns.
func TestGoldenEventMatchesPollingFlat(t *testing.T) {
	cfg := orchCfg(0.5)
	ev, poll, evT, pollT := runGolden(t, false, []string{"slow", "fast"}, 4, 200, 20, cfg)
	assertGoldenEquivalent(t, ev, poll, evT, pollT, cfg)
	if ev.LoopIterations*10 > poll.LoopIterations {
		t.Errorf("event loop took %d turns vs polling %d — want >=10x fewer",
			ev.LoopIterations, poll.LoopIterations)
	}
}

// TestGoldenEventMatchesPollingSpiky: revocation notices, refunds and
// redeployments must not break report equivalence either.
func TestGoldenEventMatchesPollingSpiky(t *testing.T) {
	cfg := orchCfg(1.0)
	ev, poll, evT, pollT := runGolden(t, true, []string{"slow"}, 2, 900, 50, cfg)
	assertGoldenEquivalent(t, ev, poll, evT, pollT, cfg)
	if ev.Notices == 0 || poll.Notices == 0 {
		t.Fatalf("spiky fixture produced no notices (event %d, polling %d)", ev.Notices, poll.Notices)
	}
}

// TestGoldenEventMatchesPollingConcurrent covers the elastic fan-out path.
func TestGoldenEventMatchesPollingConcurrent(t *testing.T) {
	cfg := orchCfg(0.7)
	cfg.MaxConcurrent = 3
	ev, poll, evT, pollT := runGolden(t, false, []string{"slow", "fast"}, 5, 150, 10, cfg)
	assertGoldenEquivalent(t, ev, poll, evT, pollT, cfg)
}
