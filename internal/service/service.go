// Package service is the sharded multi-tenant world engine: it schedules
// thousands of concurrent tenant campaigns onto a small number of world
// shards. Each shard runs its admitted tenants in waves; a wave owns one
// discrete-event clock and one shared spot-market capacity domain, and its
// campaigns advance cooperatively in next-event order.
//
// The shape deliberately inverts campaign.Sweep. A sweep runs independent
// campaigns in parallel, each inside its own private universe; the service
// runs co-resident campaigns inside one universe per wave, serialized by an
// arbiter token so their fleets can share — and contend for — the same
// per-type spot capacity and demand-priced market (cloudsim.CapacityDomain).
// With contention disabled the worlds decouple exactly, and per-tenant
// results are bit-identical to solo campaign runs for any shard count: the
// metamorphic pin the tests enforce. A tenant that panics fails alone, as a
// Result carrying a *campaign.PanicError.
//
// Waves run on the same campaign.Fan worker pool as Sweep and the scenario
// matrix: one worker per shard, each owning one event-node pool, one
// curve-fit memo and one ground-truth perf cache per in-flight slot, and at
// most two waves per shard dispatched ahead of in-order delivery. A
// 10k-tenant day therefore holds shard-count × in-flight state, never 10k
// campaign states.
package service

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"spottune/internal/campaign"
	"spottune/internal/cloudsim"
	"spottune/internal/core"
	"spottune/internal/earlycurve"
	"spottune/internal/invariants"
	"spottune/internal/market"
	"spottune/internal/obs"
	"spottune/internal/scenario"
	"spottune/internal/simclock"
	"spottune/internal/stats"
	"spottune/internal/trial"
	"spottune/internal/workload"
)

// Tenant is one customer's campaign request: identity, fair-share weight,
// and the campaign knobs the service forwards verbatim.
type Tenant struct {
	// ID names the tenant in results, traces, and admission events. Empty
	// defaults to "t-<submission index>".
	ID string
	// Weight is the fair-share weight (default 1): weighted-fair admission
	// orders tenants by ascending 1/Weight, so heavier tenants start
	// earlier within the same arrival batch.
	Weight float64
	// Theta is the campaign's cost/time knob (default 0.7).
	Theta float64
	// Seed drives the tenant's private trial and market randomness.
	Seed uint64
	// Policy/Tuner/Resilience are registry names, empty for defaults.
	Policy     string
	Tuner      string
	Resilience string
	// Deadline/Budget are the tenant's completion target and spend cap
	// (zero = unconstrained). Admission caps (Config.MaxBudget,
	// Config.MaxDeadline) audit these before the campaign ever runs.
	Deadline time.Duration
	Budget   float64
	// BaseType is the compatibility anchor forwarded to the campaign.
	BaseType string
}

// Admission policy names.
const (
	// AdmissionFIFO admits and starts tenants in submission order.
	AdmissionFIFO = "fifo"
	// AdmissionWeightedFair orders tenants by ascending 1/Weight (stride
	// virtual finish time), ties by submission order, before sharding.
	AdmissionWeightedFair = "weighted-fair"
)

// AdmissionNames lists the admission policies, sorted.
func AdmissionNames() []string { return []string{AdmissionFIFO, AdmissionWeightedFair} }

// Rejection reasons stamped on Result.Reason and tenant-reject events.
const (
	ReasonBudgetCap   = "budget-cap"
	ReasonDeadlineCap = "deadline-cap"
)

// Config tunes one service run.
type Config struct {
	// Shards is the number of world shards (default 1): tenants are
	// assigned round-robin in admission order, and that many waves run at
	// once, each on a worker with its own node pool and fit memo.
	Shards int
	// MaxInFlight caps concurrently-open campaigns per shard (default 8):
	// a shard runs its tenants in waves of this size, each wave sharing
	// one virtual clock epoch and one capacity domain.
	MaxInFlight int
	// Admission selects the ordering policy (default AdmissionFIFO).
	Admission string
	// MaxBudget, when positive, rejects tenants with no budget or a budget
	// above the cap (reason "budget-cap") — unconstrained tenants cannot
	// starve a capped region. MaxDeadline is the analogous deadline cap.
	MaxBudget   float64
	MaxDeadline time.Duration
	// Contention couples co-resident fleets: the shard's catalog is capped
	// at Capacity spot instances per type (default 4) and aggregate demand
	// lifts prices by SurgeSlope at full utilization. Off, every tenant
	// sees the environment's unlimited private market.
	Contention bool
	Capacity   int
	SurgeSlope float64
	// SkipInvariants disables the per-campaign invariant audit (the
	// throughput benchmark skips it; batteries keep it on).
	SkipInvariants bool
	// Trace records service-level admission/start/done events into
	// Summary.Trace, in deterministic submission order.
	Trace bool
	// TraceTenant names one tenant whose campaign runs fully flight-
	// recorded; its recording is attached to that tenant's Result — the
	// explain-this-tenant workflow.
	TraceTenant string
	// OnResult streams each tenant's Result in admission order (identical
	// to submission order under FIFO) from a single goroutine. Results are
	// not retained by the service; this is the only way to observe
	// per-tenant reports.
	OnResult func(Result)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.Admission == "" {
		c.Admission = AdmissionFIFO
	}
	if c.Contention && c.Capacity <= 0 {
		c.Capacity = 4
	}
	return c
}

// Result is one tenant's outcome, delivered in admission order (which is
// submission order under FIFO admission).
type Result struct {
	Tenant Tenant
	// Index is the tenant's submission position.
	Index int
	// Shard/Wave locate the run (rejected tenants carry the shard that
	// would have hosted them and Wave -1).
	Shard int
	Wave  int
	// Admitted is false when admission control refused the tenant; Reason
	// says why. Rejected tenants never construct a cluster, so they post
	// zero ledger entries by construction.
	Admitted bool
	Reason   string
	// Report is the campaign outcome (nil when rejected or failed).
	Report *core.Report
	// Violations are the tenant campaign's invariant-audit findings.
	Violations []invariants.Violation
	// Trace is the tenant's campaign flight recording (TraceTenant only).
	Trace *obs.Recording
	// Err is the campaign error, nil on success. A tenant whose campaign
	// panicked carries a *campaign.PanicError naming the tenant and is
	// counted in Summary.Failed; its co-residents are unaffected.
	Err error
}

// Summary aggregates a service run without retaining per-tenant state.
type Summary struct {
	Tenants  int
	Admitted int
	Rejected int
	Failed   int
	Waves    int
	// Violations counts per-campaign invariant findings across tenants;
	// Capacity holds the cross-tenant capacity-oversubscription audit's
	// findings (one sweep per contended wave), in wave-major order: every
	// shard's wave 0, then every wave 1, and so on, whatever the scheduling.
	Violations int
	Capacity   []invariants.Violation
	// Cost/JCTHours/RefundFrac sketch the per-tenant distributions.
	Cost       *stats.QuantileSketch
	JCTHours   *stats.QuantileSketch
	RefundFrac *stats.QuantileSketch
	// TotalCost sums net spend in submission order; CostGini is the
	// fairness of that spend across admitted, completed tenants.
	TotalCost float64
	CostGini  float64
	// Trace is the service-level recording (Config.Trace).
	Trace *obs.Recording
}

// waveState is one worker's bounded working set, reused by every wave the
// worker runs: the event-node pool and fit memo persist across waves; perf
// caches are per in-flight slot because ground-truth curves are world-keyed
// (a slot hosts one tenant per wave, so its cache is never shared
// mid-campaign). All three are content-addressed, so which worker runs a
// wave never changes its results.
type waveState struct {
	pool *simclock.NodePool
	memo *earlycurve.FitMemo
	perf []*trial.PerfCache
}

// Run executes the tenant battery against the environment and streams
// per-tenant results through cfg.OnResult in submission order.
func Run(env *campaign.Environment, bench *workload.Benchmark, curves workload.Curves, tenants []Tenant, cfg Config) (*Summary, error) {
	cfg = cfg.withDefaults()
	if env == nil || bench == nil {
		return nil, fmt.Errorf("service: nil environment or benchmark")
	}
	switch cfg.Admission {
	case AdmissionFIFO, AdmissionWeightedFair:
	default:
		return nil, fmt.Errorf("service: unknown admission policy %q (have %v)", cfg.Admission, AdmissionNames())
	}

	// Normalize tenant identities once so events, results, and traces agree.
	tens := make([]Tenant, len(tenants))
	copy(tens, tenants)
	for i := range tens {
		if tens[i].ID == "" {
			tens[i].ID = fmt.Sprintf("t-%d", i)
		}
		if tens[i].Weight <= 0 {
			tens[i].Weight = 1
		}
		if tens[i].Theta == 0 {
			tens[i].Theta = 0.7
		}
	}

	// Admission order: FIFO is submission order; weighted-fair sorts by
	// stride virtual finish time 1/Weight, ties by submission order, so
	// heavier tenants land in earlier waves.
	order := make([]int, len(tens))
	for i := range order {
		order[i] = i
	}
	if cfg.Admission == AdmissionWeightedFair {
		sort.SliceStable(order, func(a, b int) bool {
			fa, fb := 1/tens[order[a]].Weight, 1/tens[order[b]].Weight
			if fa != fb {
				return fa < fb
			}
			return order[a] < order[b]
		})
	}

	// Admission caps and shard/wave placement, decided up front. Wave -1
	// marks a rejected tenant.
	type placement struct {
		shard, wave int
		reason      string
	}
	placed := make([]placement, len(tens))
	queues := make([][]int, cfg.Shards) // submission indexes
	next := 0                           // admitted counter: shard round-robin position
	for _, i := range order {
		t := tens[i]
		p := placement{shard: next % cfg.Shards, wave: -1}
		switch {
		case cfg.MaxBudget > 0 && (t.Budget <= 0 || t.Budget > cfg.MaxBudget):
			p.reason = ReasonBudgetCap
		case cfg.MaxDeadline > 0 && (t.Deadline <= 0 || t.Deadline > cfg.MaxDeadline):
			p.reason = ReasonDeadlineCap
		default:
			p.wave = len(queues[p.shard]) / cfg.MaxInFlight
			queues[p.shard] = append(queues[p.shard], i)
			next++
		}
		placed[i] = p
	}
	// result is tenant i's Result before its campaign runs; a rejected
	// tenant's is final.
	result := func(i int) Result {
		p := placed[i]
		return Result{Tenant: tens[i], Index: i, Shard: p.shard, Wave: p.wave, Admitted: p.wave >= 0, Reason: p.reason}
	}
	// The fan-out's jobs are waves — up to MaxInFlight consecutive tenants
	// of one shard's queue — in wave-major order: every shard's wave 0, then
	// every wave 1, and so on (round-robin from shard 0 makes its queue the
	// longest). Admitted ranks stripe across shards in the same order, so
	// this is admission order at wave granularity. A wave's Results are
	// built as it is dispatched and completed in place by runWave.
	waves := func(yield func([]Result) bool) {
		for lo := 0; lo < len(queues[0]); lo += cfg.MaxInFlight {
			for _, q := range queues {
				var wave []Result
				for _, i := range q[min(lo, len(q)):min(lo+cfg.MaxInFlight, len(q))] {
					wave = append(wave, result(i))
				}
				if len(wave) > 0 && !yield(wave) {
					return
				}
			}
		}
	}

	var rec *obs.Recording
	if cfg.Trace {
		rec = obs.NewRecording(obs.Meta{Scenario: "service", Workload: bench.Name})
		// Admission events in submission order: placement is a pure
		// function of (tenants, config), so the trace prefix is stable for
		// any shard count.
		for i, p := range placed {
			if p.wave >= 0 {
				rec.Emit(obs.Event{VT: env.CampaignStart, Kind: obs.KindTenantAdmit,
					Trial: tens[i].ID, Label: cfg.Admission, A: tens[i].Weight, N: int64(p.shard)})
			} else {
				rec.Emit(obs.Event{VT: env.CampaignStart, Kind: obs.KindTenantReject,
					Trial: tens[i].ID, Label: p.reason, N: int64(p.shard)})
			}
		}
	}

	// The contended region: one capacity-capped catalog shared read-only by
	// every wave; each wave gets its own fresh demand domain.
	var capCat *market.Catalog
	if cfg.Contention {
		capCat = env.Catalog.WithCapacity(cfg.Capacity)
	}

	sum := &Summary{
		Tenants:    len(tens),
		Cost:       stats.NewQuantileSketch(stats.DefaultSketchAlpha),
		JCTHours:   stats.NewQuantileSketch(stats.DefaultSketchAlpha),
		RefundFrac: stats.NewQuantileSketch(stats.DefaultSketchAlpha),
		Trace:      rec,
	}
	// Wave results are parked by submission index and delivered strictly in
	// admission order, rejected tenants interleaved at their position.
	var costs []float64
	parked := make(map[int]Result)
	pos := 0 // admission position of the next delivery
	deliverDue := func() {
		for ; pos < len(order); pos++ {
			i := order[pos]
			r, ok := parked[i]
			if placed[i].wave < 0 {
				r, ok = result(i), true
			}
			if !ok {
				return
			}
			delete(parked, i)
			switch {
			case !r.Admitted:
				sum.Rejected++
			case r.Err != nil:
				sum.Failed++
			case r.Report != nil:
				sum.Admitted++
				sum.Cost.Add(r.Report.NetCost)
				sum.JCTHours.Add(r.Report.JCT.Hours())
				if r.Report.GrossCost > 0 {
					sum.RefundFrac.Add(r.Report.Refund / r.Report.GrossCost)
				}
				sum.TotalCost += r.Report.NetCost
				costs = append(costs, r.Report.NetCost)
				if rec != nil {
					rec.Emit(obs.Event{VT: env.CampaignStart, Kind: obs.KindTenantStart,
						Trial: r.Tenant.ID, N: int64(r.Shard)})
					rec.Emit(obs.Event{VT: env.CampaignStart.Add(r.Report.JCT), Kind: obs.KindTenantDone,
						Trial: r.Tenant.ID, A: r.Report.NetCost, B: r.Report.JCT.Hours(), N: int64(r.Shard)})
				}
			}
			sum.Violations += len(r.Violations)
			if cfg.OnResult != nil {
				cfg.OnResult(r)
			}
		}
	}

	// One worker per shard, and at most two waves per shard dispatched
	// ahead of delivery, which bounds the reorder buffer of campaign
	// reports by 2 × Shards × MaxInFlight whatever the cross-shard skew.
	err := campaign.Fan(waves, cfg.Shards, 2*cfg.Shards,
		func() *waveState {
			st := &waveState{pool: simclock.NewNodePool(), memo: earlycurve.NewFitMemo(),
				perf: make([]*trial.PerfCache, cfg.MaxInFlight)}
			for k := range st.perf {
				st.perf[k] = trial.NewPerfCache()
			}
			return st
		},
		func(st *waveState, wave []Result) ([]invariants.Violation, error) {
			return runWave(env, bench, curves, st, wave, capCat, cfg), nil
		},
		func(wave []Result, capacity []invariants.Violation, err error) error {
			if err != nil {
				return fmt.Errorf("service: shard %d wave %d: %w", wave[0].Shard, wave[0].Wave, err)
			}
			sum.Waves++
			sum.Capacity = append(sum.Capacity, capacity...)
			for _, r := range wave {
				parked[r.Index] = r
			}
			deliverDue()
			return nil
		})
	if err != nil {
		return nil, err
	}
	deliverDue() // rejections after the last admitted tenant, or all of them
	sum.CostGini = stats.Gini(costs)
	return sum, nil
}

// runWave executes one shard wave, completing its tenants' Results in
// place: a fresh clock epoch at the campaign start, a fresh capacity domain,
// and one goroutine per tenant serialized by the arbiter token in next-event
// order. A tenant that panics fails alone: the panic becomes its Result's
// error and the token passes on, so the wave drains. Returns the wave's
// cross-tenant capacity audit findings (contention mode only).
func runWave(env *campaign.Environment, bench *workload.Benchmark, curves workload.Curves,
	st *waveState, tenants []Result, capCat *market.Catalog, cfg Config) []invariants.Violation {

	clk := simclock.NewVirtual(env.CampaignStart)
	clk.SetNodePool(st.pool)
	world := &campaign.World{Clock: clk}
	if capCat != nil {
		world.Catalog = capCat
		world.Domain = cloudsim.NewCapacityDomain(cfg.SurgeSlope)
	}
	arb := newArbiter(len(tenants), env.CampaignStart.UnixNano())
	clk.SetAdvanceGate(arb.gate)

	ledgers := make([]*cloudsim.Ledger, len(tenants))
	var wg sync.WaitGroup
	for k := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arb.acquire(k)
			defer arb.finish(k)
			tenants[k] = runTenant(env, bench, curves, st, k, tenants[k], world, cfg, &ledgers[k])
		}()
	}
	arb.kick()
	wg.Wait()
	// Reclaim event nodes the wave scheduled but never fired (pending
	// revocations past campaign end) so the next wave reuses the slab.
	clk.SetAdvanceGate(nil)
	clk.ReleaseNodes()

	if capCat == nil {
		return nil
	}
	return invariants.CheckCapacity(capCat, ledgers)
}

// runTenant executes one tenant campaign inside the wave's shared world.
// It runs entirely under the arbiter token (yielding at every clock
// advance), so the worker's memo, the slot's perf cache, and the shared
// cluster state are never touched concurrently. A panic is recovered into
// the Result's error still under the token; campaign.Environment.RunPolicy
// has already terminated the tenant's fleet, so none of its events fire
// inside a co-resident's advance and its capacity is released.
func runTenant(env *campaign.Environment, bench *workload.Benchmark, curves workload.Curves,
	st *waveState, slot int, placed Result, world *campaign.World, cfg Config, ledger **cloudsim.Ledger) (res Result) {

	res, t := placed, placed.Tenant
	defer func() {
		if v := recover(); v != nil {
			res.Err = fmt.Errorf("service: tenant %s: %w", t.ID, &campaign.PanicError{Value: v})
		}
	}()
	opt := campaign.Options{
		Theta:      t.Theta,
		Seed:       t.Seed,
		Policy:     t.Policy,
		Tuner:      t.Tuner,
		Resilience: t.Resilience,
		Deadline:   t.Deadline,
		Budget:     t.Budget,
		BaseType:   t.BaseType,
		Trend:      &earlycurve.Predictor{Memo: st.memo},
		PerfCache:  st.perf[slot],
		World:      world,
		Trace:      cfg.TraceTenant != "" && cfg.TraceTenant == t.ID,
	}
	opt.Inspect = func(d *campaign.RunDetail) error {
		*ledger = d.Cluster.Ledger()
		if res.Trace = d.Trace; res.Trace != nil {
			res.Trace.Meta.Scenario = "service"
			res.Trace.Meta.Replicate = res.Index
		}
		if !cfg.SkipInvariants {
			res.Violations = invariants.Check(scenario.StateFor(d))
		}
		return nil
	}
	res.Report, res.Err = env.RunPolicy(bench, curves, opt)
	return res
}

// DefaultBattery builds a deterministic n-tenant battery on the matrix
// runner's replicate-seed stream: thetas and fair-share weights cycle so
// admission and contention have texture, budgets and deadlines stay
// unconstrained. Tenant i is identical for every (n ≥ i, seed) pair, so
// batteries of different sizes share a prefix.
func DefaultBattery(n int, seed uint64) []Tenant {
	thetas := []float64{0.5, 0.7, 0.9}
	weights := []float64{1, 2, 4}
	out := make([]Tenant, n)
	for i := range out {
		out[i] = Tenant{
			ID:     fmt.Sprintf("t-%05d", i),
			Weight: weights[i%len(weights)],
			Theta:  thetas[i%len(thetas)],
			Seed:   scenario.ReplicateSeed(seed, i),
		}
	}
	return out
}
