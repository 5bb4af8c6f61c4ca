package main

import (
	"fmt"
	"math"
	"time"

	"spottune/internal/core"
)

// tally accounts for the campaigns of one pass over a workload's inputs.
// A campaign fails when it errors, when its invariant audit finds anything,
// or when its result never arrives; cross-tenant capacity findings and
// digest mismatches are failures too. Failures are counted, never dropped.
type tally struct {
	expected int // campaigns the pass must deliver
	seen     int // results delivered
	failed   int

	cost, jctHours float64 // sums over delivered reports
	reports        int
	digest         uint64 // FNV-1a over cost and JCT bits in emission order

	turns, deployments, notices int

	wall    time.Duration // host time of the pass
	refWall float64       // the pass's host time in reference seconds (untraced runs)
	waves   int           // service waves
	errs    []string      // first few failure reasons
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	maxErrs   = 5
)

func newTally(expected int) *tally {
	return &tally{expected: expected, digest: fnvOffset}
}

func (t *tally) mix(bits uint64) {
	for i := 0; i < 8; i++ {
		t.digest ^= bits & 0xff
		t.digest *= fnvPrime
		bits >>= 8
	}
}

// add records one delivered campaign result.
func (t *tally) add(rep *core.Report, violations int, err error) {
	t.seen++
	switch {
	case err != nil:
		t.fail(err.Error())
	case rep == nil:
		t.fail("campaign delivered no report")
	case violations > 0:
		t.fail(fmt.Sprintf("%d invariant violations", violations))
	}
	if rep == nil {
		t.mix(math.MaxUint64)
		return
	}
	cost, jct := rep.NetCost, rep.JCT.Hours()
	t.mix(math.Float64bits(cost))
	t.mix(math.Float64bits(jct))
	t.cost += cost
	t.jctHours += jct
	t.reports++
	t.turns += rep.LoopIterations
	t.deployments += rep.Deployments
	t.notices += rep.Notices
}

// fail records one failure with its reason.
func (t *tally) fail(reason string) {
	t.failed++
	if len(t.errs) < maxErrs {
		t.errs = append(t.errs, reason)
	}
}

// close counts every expected result that never arrived as failed, and
// caps failures at the expected count (one campaign fails at most once
// for the purposes of the fraction).
func (t *tally) close() {
	if missing := t.expected - t.seen; missing > 0 {
		t.failed += missing
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, fmt.Sprintf("%d results missing", missing))
		}
	}
	if t.failed > t.expected {
		t.failed = t.expected
	}
}

// rate is campaigns completed per host second of the pass.
func (t *tally) rate() float64 {
	if t.wall <= 0 {
		return 0
	}
	return float64(t.reports) / t.wall.Seconds()
}

func (t *tally) meanCost() float64 {
	if t.reports == 0 {
		return 0
	}
	return t.cost / float64(t.reports)
}

func (t *tally) meanJCT() float64 {
	if t.reports == 0 {
		return 0
	}
	return t.jctHours / float64(t.reports)
}
