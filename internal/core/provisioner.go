// Package core implements SpotTune itself: the Algorithm 1 Orchestrator with
// notice-driven checkpointing, hourly refund-farming restarts and
// EarlyCurve-based early shutdown, driven by a pluggable provisioning policy
// (the paper's Eq. 1–2 provisioner is policy "spottune"); plus the legacy
// Single-Spot baseline loop of §IV-A4 and campaign reports.
package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"spottune/internal/market"
	"spottune/internal/policy"
	"spottune/internal/revpred"
)

// Default bid-delta interval (Algorithm 1 line 4): the maximum price is the
// current market price plus a uniform delta from this range, in USD.
const (
	DefaultDeltaLow  = policy.DefaultDeltaLow
	DefaultDeltaHigh = policy.DefaultDeltaHigh
)

// ValidatePoolWiring checks that every pool member has a feature grid and a
// revocation predictor — the fail-fast guard for Eq. 1–2 wiring in
// campaign-level policy construction (GridRevProb silently predicts 0 for
// unknown markets, which would bias selection instead of erroring).
func ValidatePoolWiring(pool []string, grids map[string]*market.Grid, predictors map[string]revpred.Predictor) error {
	for _, name := range pool {
		if _, ok := grids[name]; !ok {
			return fmt.Errorf("core: no market grid for pool member %q", name)
		}
		if _, ok := predictors[name]; !ok {
			return fmt.Errorf("core: no revocation predictor for pool member %q", name)
		}
	}
	return nil
}

// GridRevProb builds a policy.RevProbFunc over per-market feature grids and
// trained revocation predictors — the Eq. 1 probability term. Markets
// without a grid entry (or instants outside the grid) predict 0.
func GridRevProb(grids map[string]*market.Grid, predictors map[string]revpred.Predictor) policy.RevProbFunc {
	return func(typeName string, at time.Time, maxPrice float64) float64 {
		grid, ok := grids[typeName]
		if !ok {
			return 0
		}
		pred, ok := predictors[typeName]
		if !ok {
			return 0
		}
		if idx, err := grid.Index(at); err == nil {
			return pred.Predict(grid, idx, maxPrice)
		}
		return 0
	}
}

// PerfMatrix is the online performance model M of Algorithm 1: estimated
// seconds per step for every (instance type, HP) pair, initialized from core
// counts and refined from observed throughput.
type PerfMatrix struct {
	c0      float64
	catalog *market.Catalog
	est     map[string]map[string]float64
	alpha   float64
}

// NewPerfMatrix builds M with M[inst][hp] initialized to c0 / effective
// CPUs — cores scaled by the family's performance factor, so a newer
// generation's prior is proportionally faster. At the default factor 1 this
// is exactly c0 / CPUs.
func NewPerfMatrix(catalog *market.Catalog, c0 float64) *PerfMatrix {
	if c0 <= 0 {
		c0 = 16
	}
	return &PerfMatrix{
		c0:      c0,
		catalog: catalog,
		est:     make(map[string]map[string]float64),
		alpha:   0.5,
	}
}

// Get returns the current estimate of seconds/step.
func (m *PerfMatrix) Get(typeName, hpID string) float64 {
	if hp, ok := m.est[typeName]; ok {
		if v, ok := hp[hpID]; ok {
			return v
		}
	}
	it, ok := m.catalog.Lookup(typeName)
	if !ok || it.CPUs == 0 {
		return m.c0
	}
	return m.c0 / it.EffectiveCPUs()
}

// Observe folds a measured seconds-per-step sample into the estimate
// (line 36 of Algorithm 1).
func (m *PerfMatrix) Observe(typeName, hpID string, secPerStep float64) {
	if secPerStep <= 0 || math.IsNaN(secPerStep) || math.IsInf(secPerStep, 0) {
		return
	}
	hp, ok := m.est[typeName]
	if !ok {
		hp = make(map[string]float64)
		m.est[typeName] = hp
	}
	if prev, ok := hp[hpID]; ok {
		hp[hpID] = (1-m.alpha)*prev + m.alpha*secPerStep
	} else {
		hp[hpID] = secPerStep
	}
}

// Snapshot lists known estimates sorted by (type, hp) for reporting.
func (m *PerfMatrix) Snapshot() []PerfEntry {
	var out []PerfEntry
	for tn, hps := range m.est {
		for hp, v := range hps {
			out = append(out, PerfEntry{TypeName: tn, HPID: hp, SecPerStep: v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TypeName != out[j].TypeName {
			return out[i].TypeName < out[j].TypeName
		}
		return out[i].HPID < out[j].HPID
	})
	return out
}

// PerfEntry is one observed performance-matrix cell.
type PerfEntry struct {
	TypeName   string
	HPID       string
	SecPerStep float64
}
