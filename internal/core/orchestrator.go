package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spottune/internal/cloudsim"
	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/resilience"
	"spottune/internal/search"
	"spottune/internal/trial"
)

// LoopMode selects how the orchestrator advances virtual time.
type LoopMode int

const (
	// LoopEvent (the default) runs Algorithm 1 as a discrete-event loop:
	// each assignment's next trigger time (trigger-step completion,
	// θ-shutdown point, proactive-restart horizon, periodic-checkpoint
	// tick, plateau step) is computed and the clock advances directly to
	// the earliest one, or to the cluster's next interesting instant
	// (notice, revocation, price tick), whichever comes first.
	LoopEvent LoopMode = iota
	// LoopPolling is the paper's literal Algorithm 1 loop: sample every
	// assignment each PollInterval. Behavior matches LoopEvent up to
	// poll-quantization differences (triggers are detected at most one
	// PollInterval late). Kept for golden-equivalence tests and as the
	// reference implementation.
	LoopPolling
)

// Config tunes the orchestrator. Zero values select the paper's settings.
type Config struct {
	// Mode selects discrete-event (default) or polling execution.
	Mode LoopMode
	// Theta is the early-shutdown rate θ ∈ (0, 1] (Table I).
	Theta float64
	// MCnt is how many top-ranked models to continue training from
	// checkpoints after the prediction phase (Table I; default 3).
	MCnt int
	// MaxConcurrent caps simultaneously deployed trials. The paper's
	// evaluation processes trials one at a time (default 1); higher
	// values exercise the elastic fan-out Algorithm 1 permits.
	MaxConcurrent int
	// PollInterval is the Algorithm 1 loop sleep (default 10s).
	PollInterval time.Duration
	// RestartAfter is the proactive restart horizon (default 1h — the
	// refund-window boundary of Fig. 4).
	RestartAfter time.Duration
	// StartupDelay models instance boot time before training can begin
	// (default 60s).
	StartupDelay time.Duration
	// C0 initializes the performance matrix to C0/CPUs seconds per step
	// (default 16).
	C0 float64
	// CheckpointSetup/RestoreSetup are fixed per-event costs beyond raw
	// transfer time: snapshotting the training process, remounting the
	// object store, restarting the runtime (defaults 20s / 40s). These
	// dominate Fig. 12 for small-model workloads, matching the paper's
	// nonzero overhead on linear models.
	CheckpointSetup time.Duration
	RestoreSetup    time.Duration
	// PeriodicCheckpoint is the cadence for trials whose checkpoint is
	// too large to upload inside the two-minute revocation notice
	// (§IV-F's max-model-size limit). Such trials checkpoint on this
	// schedule instead of at notice time, losing at most one period of
	// work per revocation — the "periodically checkpointing" extension
	// the paper leaves as future work. Default 10 minutes.
	PeriodicCheckpoint time.Duration
	// Trend predicts final metrics from partial curves (default
	// EarlyCurve with paper constants).
	Trend earlycurve.TrendPredictor
	// ConvergeWindow/ConvergeTol detect plateaued trials (§III-C).
	ConvergeWindow int
	ConvergeTol    float64
	// Tuner owns the trial lifecycle: which trials (re)activate each
	// round, their step budgets, when the search stops, and the final
	// ranking/selection. Nil selects the paper's Algorithm 1 schedule
	// ("spottune": θ-truncated explore, EarlyCurve prediction, continue
	// top-MCnt) derived from Theta and MCnt. Tuners are stateful and
	// single-use — each Run consumes one; construct a fresh instance
	// (search.New) per campaign.
	Tuner search.Tuner
	// Resilience is the recovery strategy consulted at the three moments
	// that decide survival: the periodic checkpoint cadence per
	// assignment, the action inside a revocation notice window, and the
	// retry pacing (and give-up budget) under capacity blackouts. Nil
	// selects resilience.Default() — the fixed strategy, which reproduces
	// the historical hardcoded behavior bit for bit. Strategies may be
	// stateful; construct a fresh instance per campaign.
	Resilience resilience.Strategy
	// Deadline is the campaign completion target measured from campaign
	// start (0 = unconstrained). With a deadline set, the orchestrator
	// tracks projected slack at every deployment decision and escalates
	// the degradation ladder — spot → diversified spot → on-demand — as
	// the projection slips (resilience.SlackTracker).
	Deadline time.Duration
	// Budget caps degradation-ladder escalation: once the campaign's net
	// spend reaches it, the ladder will not force on-demand capacity the
	// campaign cannot pay for (0 = unbounded). Only meaningful together
	// with Deadline.
	Budget float64
	// Tracer is the campaign's flight recorder (internal/obs): every
	// deploy, notice, checkpoint, restore, round, elimination, ranking,
	// and ledger posting lands in it with virtual timestamps and monotonic
	// sequence numbers. Nil selects obs.Nop — tracing off, zero overhead.
	// The orchestrator installs the same tracer on the cluster so billing
	// settlements share the recording.
	Tracer obs.Tracer
	// BaseType is the campaign's compatibility anchor: the instance type
	// the workload was sized for. It does not constrain decisions here —
	// campaign assembly narrows the pool to catalog-compatible types before
	// the orchestrator sees it — but it is echoed into the Report so
	// invariant checkers can audit that every rented instance satisfied the
	// compatibility predicate. Empty means unconstrained.
	BaseType string
}

func (c Config) withDefaults() Config {
	if c.Theta <= 0 || c.Theta > 1 {
		c.Theta = 0.7
	}
	if c.MCnt <= 0 {
		c.MCnt = 3
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 10 * time.Second
	}
	if c.RestartAfter <= 0 {
		c.RestartAfter = time.Hour
	}
	if c.StartupDelay < 0 {
		c.StartupDelay = 0
	} else if c.StartupDelay == 0 {
		c.StartupDelay = time.Minute
	}
	if c.C0 <= 0 {
		c.C0 = 16
	}
	if c.Trend == nil {
		c.Trend = &earlycurve.Predictor{}
	}
	if c.CheckpointSetup <= 0 {
		c.CheckpointSetup = 15 * time.Second
	}
	if c.RestoreSetup <= 0 {
		c.RestoreSetup = 30 * time.Second
	}
	if c.PeriodicCheckpoint <= 0 {
		c.PeriodicCheckpoint = 10 * time.Minute
	}
	if c.ConvergeWindow <= 0 {
		c.ConvergeWindow = 8
	}
	if c.ConvergeTol <= 0 {
		// Tight enough that plateau noise on near-tied configs does not
		// truncate observation before the ranking that depends on it.
		c.ConvergeTol = 5e-4
	}
	if c.Tracer == nil {
		c.Tracer = obs.Nop{}
	}
	if c.Resilience == nil {
		c.Resilience = resilience.Default()
	}
	if c.Deadline < 0 {
		c.Deadline = 0
	}
	if c.Budget < 0 {
		c.Budget = 0
	}
	return c
}

// segment records steps run on one instance so refunds can be attributed.
type segment struct {
	instanceID string
	trialID    string
	steps      int
}

// assignment is one live (trial, instance) pairing.
type assignment struct {
	st          *trialState
	inst        *cloudsim.Instance
	deployedAt  time.Time
	busyAt      time.Time // boot + restore complete
	lastAdvance time.Time
	stepsBefore int  // trial steps when deployed
	dead        bool // noticed or terminated; awaiting redeploy

	// oversized marks trials whose checkpoint cannot finish inside the
	// revocation notice on this instance; they checkpoint periodically.
	oversized  bool
	lastCkptAt time.Time
	// cadence is the periodic-checkpoint interval the resilience strategy
	// chose for this assignment (fixed: Config.PeriodicCheckpoint;
	// adaptive: Young/Daly from the market's observed revocation rate).
	// Decided once at deploy so the schedule is stable for the segment.
	cadence time.Duration
	// lastCkptSteps is the trial's step count at its most recent durable
	// checkpoint — the rewind point a revocation loses work back to.
	lastCkptSteps int

	// obsSecs/obsSteps accumulate this segment's compute and fractional
	// step progress. The seconds-per-step sample (line 36 of Algorithm 1)
	// is folded into the performance matrix once per segment: per-slice
	// ratios with whole-step counts are biased whenever a scheduler slice
	// is shorter than a step, and the bias would differ between polling
	// and event-driven execution.
	obsSecs  float64
	obsSteps float64
}

// trialState is everything the orchestrator knows about one submitted
// trial. The zero value of every recovery field means "nothing pending".
type trialState struct {
	tr *trial.Replay
	// a is the trial's assignment in the active round: live, or noticed or
	// ended and waiting for the next sweep (nil when there is none).
	a *assignment
	// round is the number of the last round that directed the trial, and
	// limit that round's step cap.
	round    int
	limit    int
	finished bool

	// deployCount/spotFailures feed policy.TrialInfo: total deployments,
	// and the consecutive spot misfortunes — segments that ended in a
	// revocation notice plus blackout-rejected spot requests — (cleared
	// when a spot segment ends cleanly — completion or proactive restart —
	// but not by on-demand segments, which say nothing about the spot
	// market).
	deployCount  int
	spotFailures int

	// noticedAt is the trial's most recent termination notice. A trial
	// noticed at the current instant is not redeployed until one
	// PollInterval later: an instance bought inside its market's doom
	// window is noticed the moment it launches, and without this spacing
	// the event loop would deploy-notice-requeue forever at one instant
	// (the polling loop gets the same spacing for free from its sleep).
	noticedAt time.Time

	// blackoutRetryAt paces blackout-rejected spot requests onto the retry
	// schedule the resilience strategy chose (the fixed strategy picks the
	// PollInterval grid). The rejection count feeds the policy-visible
	// spot-failure streak, so the attempt cadence must not depend on the
	// loop mode: without this gate the event loop would retry at every
	// interesting instant (price ticks, arbitrary spacing) while the
	// polling loop retries every PollInterval, and fallback policies would
	// see different streaks — and make different decisions — under the
	// two loops.
	blackoutRetryAt time.Time

	// blackoutRetries counts every blackout-rejected spot request across
	// the whole campaign (reported); blackoutStreak counts the consecutive
	// rejections since the last successful deploy (the resilience
	// strategy's retry attempt number — reset on deploy, give-up, and
	// finish).
	blackoutRetries int
	blackoutStreak  int

	// gaveUp marks a trial abandoned by the resilience strategy's retry
	// budget (cleared if a later round deploys it successfully).
	gaveUp bool

	// migrating marks a trial in its notice window that the resilience
	// strategy chose to redeploy immediately (migration-on-notice); it
	// bypasses the noticedAt redeploy spacing so the restore overlaps the
	// remaining notice lead time. migrateExclude is the market to exclude
	// from the replacement decision ("" = no exclusion).
	migrating      bool
	migrateExclude string

	// lastNoticed is the market that most recently revoked the trial;
	// under diversified-spot degradation the next decision excludes it.
	lastNoticed string

	// trend is the trial's incremental EarlyCurve tracker (built lazily
	// when cfg.Trend is the production Predictor). It memoizes its last
	// staged fit, so repeated progress evaluations over an unchanged curve
	// return the cached extrapolation and an appended curve re-solves only
	// the growing tail stage — bit-identical to a cold refit either way.
	trend earlycurve.TrendPredictor

	// secPerStep is the trial's performance-matrix row as
	// policy.Context.SecPerStep, bound once so decisions allocate nothing.
	secPerStep func(typeName string) float64
}

// forgetRecoveryState clears the trial's redeploy pacing once it leaves the
// waiting/active cycle (finish or give-up), so a later round re-activating
// the trial starts with a clean streak.
func (st *trialState) forgetRecoveryState() {
	st.noticedAt, st.blackoutRetryAt = time.Time{}, time.Time{}
	st.blackoutStreak = 0
	st.migrating, st.migrateExclude = false, ""
}

// oversizedFor reports whether a checkpoint of the given size cannot be
// uploaded within the notice lead time on the given instance.
func oversizedFor(ckptMB float64, cpus int) bool {
	return ckptMB > cloudsim.MaxModelSizeMB(cpus)
}

// Orchestrator drives one HPT campaign per Algorithm 1. Deployment
// decisions are delegated to a provisioning policy (internal/policy): the
// paper's Eq. 1–2 provisioner by default, or any registered alternative —
// including policies that rent reliable on-demand capacity alongside (or
// instead of) revocable spot instances.
type Orchestrator struct {
	cfg      Config
	cluster  *cloudsim.Cluster
	store    *cloudsim.ObjectStore
	pol      policy.Policy
	pool     []string
	approach string
	perf     *PerfMatrix

	// trials holds one record per trial in submission order; byID indexes
	// it for the tuner-facing string API, and order lists the IDs.
	trials []*trialState
	byID   map[string]*trialState
	order  []string
	// waiting is the deploy queue; nActive counts the trials whose
	// assignment (live, or noticed and not yet swept) occupies a slot;
	// round numbers the tuner rounds run so far.
	waiting []*trialState
	nActive int
	round   int

	segments      []segment
	deployments   int
	odDeployments int
	notices       int
	iterations    int // scheduler loop turns across all phases

	// res is the recovery strategy (Config.Resilience; never nil). rates
	// feeds its adaptive cadence with per-market revocation-rate
	// estimates; slack drives the degradation ladder (nil without a
	// deadline).
	res   resilience.Strategy
	rates *resilience.RateEstimator
	slack *resilience.SlackTracker

	// lostSteps/migrations accumulate campaign-level resilience outcomes
	// for the report: steps rewound at revocations (oversized trials
	// losing work back to their last periodic checkpoint) and
	// migration-on-notice redeployments.
	lostSteps  int
	migrations int

	// ckptSetup/restoreSetup accumulate the fixed per-event costs that
	// transfers alone do not capture (Fig. 12 accounting).
	ckptSetup    time.Duration
	restoreSetup time.Duration

	// ckptBuf is the reusable checkpoint-encode buffer (the store copies
	// blobs on Put, so one buffer serves every write).
	ckptBuf []byte

	// tuner drives the round loop (Config.Tuner, or the default spottune
	// schedule).
	tuner search.Tuner

	// revRate is policy.Context.RevRate over rates, bound once.
	revRate func(typeName string) float64
	// spare is the assignment the next launch attempt fills, and
	// spareNotice the termination-notice callback bound to it. A rejected
	// request leaves both for the next attempt, so trials retrying against
	// a full or overpriced market allocate only when a launch succeeds.
	spare       *assignment
	spareNotice cloudsim.NoticeFunc

	// trc is the flight recorder (Config.Tracer; never nil — obs.Nop when
	// tracing is off). Also installed on the cluster, so the recording
	// interleaves orchestration and billing events in true emission order.
	trc obs.Tracer
}

// NewPolicyOrchestrator wires a campaign whose deployment decisions come
// from the given provisioning policy over the given instance pool.
func NewPolicyOrchestrator(
	cluster *cloudsim.Cluster,
	store *cloudsim.ObjectStore,
	pol policy.Policy,
	pool []string,
	trials []*trial.Replay,
	cfg Config,
) (*Orchestrator, error) {
	if cluster == nil || store == nil || pol == nil {
		return nil, errors.New("core: orchestrator needs a cluster, store, and policy")
	}
	if len(pool) == 0 {
		return nil, errors.New("core: empty instance pool")
	}
	if len(trials) == 0 {
		return nil, errors.New("core: no trials submitted")
	}
	approach := "Policy(" + pol.Name() + ")"
	if pol.Name() == policy.SpotTuneName {
		// The spottune policy is SpotTune — keep the paper's label.
		approach = "SpotTune"
	}
	o := &Orchestrator{
		cfg:      cfg.withDefaults(),
		cluster:  cluster,
		store:    store,
		pol:      pol,
		pool:     append([]string(nil), pool...),
		approach: approach,
		perf:     NewPerfMatrix(cluster.Catalog(), cfg.withDefaults().C0),
		trials:   make([]*trialState, len(trials)),
		byID:     make(map[string]*trialState, len(trials)),
		order:    make([]string, len(trials)),
		rates:    resilience.NewRateEstimator(),
	}
	o.res = o.cfg.Resilience
	o.revRate = o.rates.RevocationsPerHour
	states := make([]trialState, len(trials))
	for i, tr := range trials {
		id := tr.ID()
		if _, dup := o.byID[id]; dup {
			return nil, fmt.Errorf("core: duplicate trial %q", id)
		}
		st := &states[i]
		st.tr = tr
		st.secPerStep = func(tn string) float64 { return o.perf.Get(tn, id) }
		o.trials[i], o.byID[id], o.order[i] = st, st, id
	}
	o.tuner = o.cfg.Tuner
	if o.tuner == nil {
		o.tuner = search.Default(o.cfg.Theta, o.cfg.MCnt)
	}
	o.trc = o.cfg.Tracer
	cluster.SetTracer(o.trc)
	return o, nil
}

// ckptKey is the object-store key for a trial's checkpoint.
func ckptKey(trialID string) string { return "ckpt/" + trialID }

// Run executes the full campaign as a generic round loop: the tuner emits
// rounds (per-trial step budgets), runPhase executes each against the
// simulated cloud, and the tuner's Finish supplies the selection outputs.
// Under the default spottune tuner this is exactly Algorithm 1 lines 15–53:
// the θ-bounded exploration phase, the EarlyCurve ranking, and the top-mcnt
// continuation phase. It returns the campaign report.
func (o *Orchestrator) Run() (*Report, error) {
	start := o.cluster.Clock().Now()
	if o.cfg.Deadline > 0 {
		o.slack = resilience.NewSlackTracker(start, o.cfg.Deadline, o.cfg.Budget)
	}
	o.trc.Emit(obs.Event{
		VT:    start,
		Kind:  obs.KindCampaignStart,
		Type:  o.tuner.Name(),
		Label: o.approach,
		A:     o.cfg.Theta,
		B:     o.cfg.PollInterval.Seconds(),
		N:     int64(len(o.order)),
	})
	view := &tunerView{o: o}
	for {
		round, ok := o.tuner.Next(view)
		o.emitEliminations(round)
		if !ok || len(round.Directives) == 0 {
			// A tuner with nothing left to schedule is done whether it
			// says so (ok=false) or hands back an empty round — the
			// engine must not livelock on a Next that never declines.
			break
		}
		if err := o.runPhase(round); err != nil {
			return nil, err
		}
	}
	return o.buildReport(start, o.tuner.Finish(view)), nil
}

// emitEliminations records the trials a round dropped. Eliminations can
// ride on any round, including the final declined one, so they are handled
// before the round is executed (or the loop breaks).
func (o *Orchestrator) emitEliminations(round search.Round) {
	if len(round.Eliminated) == 0 || !o.trc.Enabled() {
		return
	}
	now := o.cluster.Clock().Now()
	for _, id := range round.Eliminated {
		o.trc.Emit(obs.Event{VT: now, Kind: obs.KindEliminate, Trial: id, Label: round.Label})
	}
}

// tunerView implements search.State over live orchestrator state.
type tunerView struct{ o *Orchestrator }

func (v *tunerView) TrialIDs() []string { return v.o.order }

func (v *tunerView) Status(id string) search.TrialStatus {
	st, ok := v.o.byID[id]
	if !ok {
		return search.TrialStatus{ID: id}
	}
	tr := st.tr
	out := search.TrialStatus{
		ID:             id,
		CompletedSteps: tr.CompletedSteps(),
		MaxSteps:       tr.MaxSteps(),
		Plateaued:      tr.Plateaued(v.o.cfg.ConvergeWindow, v.o.cfg.ConvergeTol),
	}
	if p, ok := tr.LastPoint(); ok {
		out.HasPoint, out.LastValue = true, p.Value
	}
	return out
}

func (v *tunerView) Points(id string) []earlycurve.MetricPoint {
	st, ok := v.o.byID[id]
	if !ok {
		return nil
	}
	return st.tr.Points()
}

func (v *tunerView) Trend(id string) earlycurve.TrendPredictor {
	st, ok := v.o.byID[id]
	if !ok {
		return v.o.cfg.Trend
	}
	return v.o.trendFor(st)
}

// runPhase executes one tuner round: every directed trial is (re)activated
// — cleared from the finished set and queued in directive order — and
// processed until it reaches its round budget or plateaus, handling
// revocation notices, hourly restarts, and (re)deployments. The execution
// strategy is selected by Config.Mode; both strategies share the same
// trigger handling and deployment code, so they differ only in how far the
// clock jumps between scheduler turns.
func (o *Orchestrator) runPhase(round search.Round) error {
	o.round++
	for _, st := range o.trials {
		st.a = nil
	}
	o.nActive = 0
	o.waiting = nil
	for _, d := range round.Directives {
		st, ok := o.byID[d.TrialID]
		if !ok {
			return fmt.Errorf("core: tuner %s directed unknown trial %q", o.tuner.Name(), d.TrialID)
		}
		if st.round == o.round {
			return fmt.Errorf("core: tuner %s directed trial %q twice in one round", o.tuner.Name(), d.TrialID)
		}
		st.round, st.limit = o.round, d.StepLimit
		if st.limit <= 0 || st.limit > st.tr.MaxSteps() {
			st.limit = st.tr.MaxSteps()
		}
		st.finished = false
		o.waiting = append(o.waiting, st)
	}
	if len(o.waiting) == 0 {
		return nil
	}
	if o.trc.Enabled() {
		now := o.cluster.Clock().Now()
		o.trc.Emit(obs.Event{
			VT:    now,
			Kind:  obs.KindRoundOpen,
			Label: round.Label,
			N:     int64(len(round.Directives)),
		})
		for _, d := range round.Directives {
			o.trc.Emit(obs.Event{
				VT:    now,
				Kind:  obs.KindBudget,
				Trial: d.TrialID,
				Label: round.Label,
				N:     int64(o.byID[d.TrialID].limit),
			})
		}
	}
	var err error
	if o.cfg.Mode == LoopPolling {
		err = o.runPhasePolling()
	} else {
		err = o.runPhaseEvent()
	}
	if err != nil {
		return err
	}
	o.trc.Emit(obs.Event{
		VT:    o.cluster.Clock().Now(),
		Kind:  obs.KindRoundClose,
		Label: round.Label,
		N:     int64(len(round.Directives)),
	})
	return nil
}

// runPhasePolling is the paper's literal Algorithm 1 loop: wake up every
// PollInterval and sample everything.
func (o *Orchestrator) runPhasePolling() error {
	clk := o.cluster.Clock()
	pending := len(o.waiting)
	for iter := 0; ; iter++ {
		// A week-long campaign polls ~60k times; 5M means livelock
		// (e.g. a trial that can never recover past its checkpoint).
		if iter > 5_000_000 {
			return errors.New("core: orchestrator did not converge (runaway loop)")
		}
		o.iterations++
		now := clk.Now()
		o.handleTriggers(now, &pending)
		if pending == 0 {
			return nil
		}
		if _, _, err := o.deployWaiting(now, &pending); err != nil {
			return err
		}
		if pending == 0 {
			return nil
		}
		clk.Sleep(o.cfg.PollInterval)
	}
}

// runPhaseEvent is the discrete-event loop: each turn handles everything due
// now, then advances the clock directly to the next instant at which any
// trigger or cluster event can fire. Asymptotically the turn count is the
// number of real events, not campaign-duration/PollInterval.
func (o *Orchestrator) runPhaseEvent() error {
	clk := o.cluster.Clock()
	pending := len(o.waiting)
	for iter := 0; ; iter++ {
		if iter > 5_000_000 {
			return errors.New("core: orchestrator did not converge (runaway loop)")
		}
		o.iterations++
		now := clk.Now()
		o.handleTriggers(now, &pending)
		if pending == 0 {
			return nil
		}
		retryAt, blocked, err := o.deployWaiting(now, &pending)
		if err != nil {
			return err
		}
		if pending == 0 {
			return nil
		}
		next, ok := o.nextWakeup(now, blocked)
		if !retryAt.IsZero() && (!ok || retryAt.Before(next)) {
			next, ok = retryAt, true
		}
		if !ok {
			return errors.New("core: stalled with no future trigger (market quiescent while trials wait)")
		}
		// Advancing fires any notice/revocation events in (now, next], so
		// the loop never skips past a cluster state change: nextWakeup
		// bounds the hop by the clock's earliest scheduled event.
		clk.AdvanceTo(next)
	}
}

// handleTriggers advances every live assignment to now and applies Algorithm
// 1's per-trial triggers, in submission order for determinism.
func (o *Orchestrator) handleTriggers(now time.Time, pending *int) {
	for _, st := range o.trials {
		a := st.a
		if a == nil || a.dead {
			continue
		}
		o.advance(a, now)
		tr := st.tr
		// Plateaued is the engine-wide convergence verdict (the memoized
		// minimal-prefix precheck plus the exact re-check) — the same call
		// the tuner-visible TrialStatus goes through, so the round executor
		// and the tuner can never disagree about a trial's plateau.
		converged := tr.Plateaued(o.cfg.ConvergeWindow, o.cfg.ConvergeTol)
		switch {
		case tr.CompletedSteps() >= st.limit || converged:
			// Early shutdown / completion (lines 27–30).
			o.checkpoint(a, now)
			o.endAssignment(a, true)
			st.finished = true
			st.forgetRecoveryState()
			*pending--
		case !a.inst.OnDemand && now.Sub(a.deployedAt) >= o.cfg.RestartAfter:
			// Hourly refund-farming restart (lines 31–34). Spot only:
			// on-demand instances are never refunded, so restarting them
			// would buy nothing but checkpoint/redeploy overhead — they
			// run until their trial-side trigger instead.
			o.checkpoint(a, now)
			o.endAssignment(a, true)
			o.waiting = append(o.waiting, st)
		case a.oversized && now.Sub(a.lastCkptAt) >= a.cadence:
			// Periodic checkpointing: this trial's state cannot be
			// saved inside the revocation notice, so snapshot on a
			// schedule and accept losing at most one period.
			o.checkpoint(a, now)
		}
	}
	// Free the slots of dead assignments.
	for _, st := range o.trials {
		if st.a != nil && st.a.dead {
			st.a = nil
			o.nActive--
		}
	}
}

// assessDegradation advances the deadline-degradation ladder (spot →
// diversified spot → on-demand) from the current slack projection: remaining
// work priced at each trial's best pool-member rate, serialized over the
// concurrency budget. Emitted once per transition; the ladder never
// de-escalates.
func (o *Orchestrator) assessDegradation(now time.Time) {
	if o.slack == nil {
		return
	}
	remaining := o.remainingSecs()
	level, changed := o.slack.Assess(now, remaining, o.cluster.Ledger().TotalNet())
	if changed {
		o.trc.Emit(obs.Event{
			VT:    now,
			Kind:  obs.KindDegradation,
			Label: resilience.LevelName(level),
			A:     o.slack.Slack(now, remaining).Seconds(),
			N:     int64(level),
		})
	}
}

// remainingSecs estimates the compute seconds left in the active round:
// each unfinished trial's remaining steps at its best (fastest-known)
// pool-member rate, summed in submission order and divided across the
// concurrency budget. An optimistic
// lower bound — real schedules add restarts and restores — which is the
// right bias for a ladder that must not escalate early.
func (o *Orchestrator) remainingSecs() float64 {
	total := 0.0
	for _, st := range o.trials {
		if st.round != o.round || st.finished {
			continue
		}
		rem := st.limit - st.tr.CompletedSteps()
		if rem <= 0 {
			continue
		}
		best := math.Inf(1)
		for _, tn := range o.pool {
			if s := o.perf.Get(tn, st.tr.ID()); s < best {
				best = s
			}
		}
		if math.IsInf(best, 1) || best <= 0 {
			continue
		}
		total += float64(rem) * best
	}
	return total / float64(o.cfg.MaxConcurrent)
}

// familyOf resolves an instance type's family through the cluster catalog
// (name-prefix fallback for types outside it); "" stays "", so an empty
// exclusion never widens to a family exclusion.
func (o *Orchestrator) familyOf(typeName string) string {
	if typeName == "" {
		return ""
	}
	if it, ok := o.cluster.Catalog().Lookup(typeName); ok {
		return it.Family
	}
	return market.FamilyOf(typeName)
}

// deployWaiting deploys waiting trials into free slots (lines 38–44). It
// reports blocked=true when the spot market rejected a request (maximum
// price below market), in which case the caller should retry after the next
// price tick; a non-zero retryAt asks the caller to try again at that
// instant (a trial noticed at the current instant is spaced out by one
// PollInterval, matching the polling loop's cadence — unless the resilience
// strategy asked for migration-on-notice, which deploys the replacement
// inside the notice window). Trials whose retry budget the resilience
// strategy exhausts are abandoned here (give-up), decrementing pending.
func (o *Orchestrator) deployWaiting(now time.Time, pending *int) (retryAt time.Time, blocked bool, err error) {
	incumbent := ""
	if len(o.waiting) > 0 {
		incumbent = o.incumbentBest()
		o.assessDegradation(now)
	}
	for len(o.waiting) > 0 && o.nActive < o.cfg.MaxConcurrent {
		st := o.waiting[0]
		if !st.migrating && !st.noticedAt.Before(now) {
			return now.Add(o.cfg.PollInterval), false, nil
		}
		if now.Before(st.blackoutRetryAt) {
			return st.blackoutRetryAt, false, nil
		}
		id := st.tr.ID()
		req, err := o.decide(st, id == incumbent)
		if err != nil {
			return time.Time{}, false, fmt.Errorf("core: provisioning %s: %w", id, err)
		}
		a := o.nextAssignment(st)
		inst, err := o.launch(req)
		switch {
		case errors.Is(err, cloudsim.ErrPriceAboveMax):
			// Market moved against us inside this tick; retry later.
			return time.Time{}, true, nil
		case errors.Is(err, cloudsim.ErrCapacityUnavailable):
			if at := o.onBlackout(st, req.TypeName, now); !at.IsZero() {
				return at, false, nil
			}
			o.waiting = o.waiting[1:]
			*pending--
			continue
		case err != nil:
			// On-demand requests only fail on unknown types, and so does
			// anything else a custom policy asks for: a configuration
			// error, not market state — surface it instead of spinning.
			return time.Time{}, false, fmt.Errorf("core: provisioning %s: %w", id, err)
		}
		o.spare = nil // a and spareNotice now belong to inst
		if err := o.place(a, inst, req, now); err != nil {
			return time.Time{}, false, err
		}
		o.waiting = o.waiting[1:]
	}
	return time.Time{}, false, nil
}

// decide asks for the trial's next instance. The resilience layer narrows
// the policy's choice: a migrating trial avoids the market that just
// revoked it, and under diversified-spot degradation every redeploy avoids
// the trial's last revoker. At the ladder's top the policy is bypassed
// entirely for reliable capacity.
func (o *Orchestrator) decide(st *trialState, incumbent bool) (policy.Request, error) {
	id := st.tr.ID()
	exclude := st.migrateExclude
	if exclude == "" && o.slack.Level() >= resilience.LevelDiversified {
		exclude = st.lastNoticed
	}
	ctx := policy.Context{
		Market: o.cluster,
		Trial: policy.TrialInfo{
			ID:             id,
			CompletedSteps: st.tr.CompletedSteps(),
			MaxSteps:       st.tr.MaxSteps(),
			Deployments:    st.deployCount,
			SpotFailures:   st.spotFailures,
			Incumbent:      incumbent,
			Exclude:        exclude,
			ExcludeFamily:  o.familyOf(exclude),
			LastRevoked:    st.lastNoticed,
		},
		ActiveOnDemand: o.activeOnDemand(),
		SecPerStep:     st.secPerStep,
		RevRate:        o.revRate,
		Tracer:         o.trc,
	}
	if o.slack.Level() >= resilience.LevelOnDemand {
		return policy.CheapestOnDemand(ctx, o.pool)
	}
	return o.pol.Decide(ctx)
}

// nextAssignment returns the spare assignment, reset for st's next launch
// attempt (allocating the spare and its notice callback when the previous
// launch consumed them).
func (o *Orchestrator) nextAssignment(st *trialState) *assignment {
	if o.spare == nil {
		a := &assignment{}
		o.spare, o.spareNotice = a, func(_ *cloudsim.Instance, at time.Time) { o.onNotice(a, at) }
	}
	*o.spare = assignment{st: st, stepsBefore: st.tr.CompletedSteps(), lastCkptSteps: st.tr.CompletedSteps()}
	return o.spare
}

// launch requests the decided instance for the spare assignment. A spot
// instance's termination notice is routed to onNotice through spareNotice.
func (o *Orchestrator) launch(req policy.Request) (*cloudsim.Instance, error) {
	if !req.OnDemand {
		return o.cluster.RequestSpot(req.TypeName, req.MaxPrice, o.spareNotice)
	}
	inst, err := o.cluster.RequestOnDemand(req.TypeName)
	if err == nil {
		o.odDeployments++
	}
	return inst, err
}

// onBlackout books a capacity-blackout rejection of the trial's spot
// request and returns the instant to retry at, or the zero time when the
// resilience strategy gives the trial up. A blackout is retriable market
// state, but unlike a price rejection the failed API call is evidence the
// market is hostile — it counts toward the trial's spot-failure streak so
// fallback policies can swap to on-demand instead of waiting the window
// out. The fixed strategy keeps the PollInterval grid so the streak grows
// identically under both loop modes; adaptive strategies back off
// exponentially and may exhaust the trial's retry budget, abandoning it
// rather than spinning through a blackout the deadline cannot absorb.
func (o *Orchestrator) onBlackout(st *trialState, typeName string, now time.Time) time.Time {
	id := st.tr.ID()
	st.spotFailures++
	st.blackoutRetries++
	st.blackoutStreak++
	attempt := st.blackoutStreak
	o.trc.Emit(obs.Event{
		VT:    now,
		Kind:  obs.KindBlackoutRetry,
		Trial: id,
		Type:  typeName,
		N:     int64(st.spotFailures),
	})
	dec := o.res.Retry(resilience.RetryContext{
		TrialID:      id,
		Attempt:      attempt,
		PollInterval: o.cfg.PollInterval,
	})
	if dec.GiveUp {
		o.trc.Emit(obs.Event{
			VT:    now,
			Kind:  obs.KindGiveUp,
			Trial: id,
			Type:  typeName,
			N:     int64(attempt),
		})
		st.gaveUp = true
		st.finished = true
		st.forgetRecoveryState()
		return time.Time{}
	}
	delay := dec.Delay
	if delay <= 0 {
		delay = o.cfg.PollInterval
	}
	o.trc.Emit(obs.Event{
		VT:    now,
		Kind:  obs.KindBackoff,
		Trial: id,
		Type:  typeName,
		A:     delay.Seconds(),
		N:     int64(attempt),
	})
	st.blackoutRetryAt = now.Add(delay)
	return st.blackoutRetryAt
}

// place books a launched instance: the deployment counters and recovery
// reset, the periodic-checkpoint cadence, the deploy event, and the restore
// from the trial's last checkpoint. The assignment then takes a slot.
func (o *Orchestrator) place(a *assignment, inst *cloudsim.Instance, req policy.Request, now time.Time) error {
	st, tr, id := a.st, a.st.tr, a.st.tr.ID()
	o.deployments++
	st.deployCount++
	st.blackoutRetryAt, st.blackoutStreak = time.Time{}, 0
	st.migrating, st.migrateExclude = false, ""
	st.gaveUp = false
	a.inst = inst
	a.deployedAt = now
	a.lastCkptAt = now
	a.oversized = oversizedFor(tr.CheckpointMB(), inst.Type.CPUs)
	// The resilience strategy decides this assignment's periodic
	// checkpoint cadence from the checkpoint's write cost and the
	// market's observed revocation rate (fixed: the configured
	// default; adaptive: Young/Daly).
	ckptSecs := o.cfg.CheckpointSetup.Seconds() +
		tr.CheckpointMB()/cloudsim.UploadSpeedMBps(inst.Type.CPUs)
	a.cadence = o.res.CheckpointInterval(resilience.CadenceContext{
		TrialID:            id,
		TypeName:           inst.Type.Name,
		CheckpointSecs:     ckptSecs,
		RevocationsPerHour: o.rates.RevocationsPerHour(inst.Type.Name),
		Default:            o.cfg.PeriodicCheckpoint,
	})
	if a.cadence <= 0 {
		a.cadence = o.cfg.PeriodicCheckpoint
	}
	deployLabel, deployPrice := "spot", req.MaxPrice
	if req.OnDemand {
		deployLabel, deployPrice = "on-demand", inst.Type.OnDemandPrice
	}
	o.trc.Emit(obs.Event{
		VT:    now,
		Kind:  obs.KindDeploy,
		Trial: id,
		Inst:  inst.ID,
		Type:  inst.Type.Name,
		Label: deployLabel,
		A:     deployPrice,
		N:     int64(tr.CompletedSteps()),
	})
	busy := now.Add(o.cfg.StartupDelay)
	// Oversized trials need a baseline recovery point before any
	// revocation can strike: without it, a notice arriving before the
	// first periodic snapshot would have nothing to rewind to.
	if a.oversized && !o.store.Exists(ckptKey(id)) {
		o.checkpoint(a, now)
	}
	// Restore from checkpoint when one exists (line 41 deploys either a
	// fresh job or a checkpointed one).
	if o.store.Exists(ckptKey(id)) {
		blob, d, err := o.store.Get(ckptKey(id), inst.Type.CPUs)
		if err != nil {
			return fmt.Errorf("core: restoring %s: %w", id, err)
		}
		if err := tr.Restore(blob); err != nil {
			return fmt.Errorf("core: restoring %s: %w", id, err)
		}
		a.stepsBefore = tr.CompletedSteps()
		a.lastCkptSteps = tr.CompletedSteps()
		busy = busy.Add(d + o.cfg.RestoreSetup)
		o.restoreSetup += o.cfg.RestoreSetup
		o.trc.Emit(obs.Event{
			VT:    now,
			Kind:  obs.KindRestore,
			Trial: id,
			Inst:  inst.ID,
			A:     (d + o.cfg.RestoreSetup).Seconds(),
			N:     int64(tr.CompletedSteps()),
		})
	}
	a.busyAt = busy
	a.lastAdvance = busy
	if st.a == nil {
		o.nActive++
	}
	st.a = a
	return nil
}

// trendFor returns the trend predictor to use for one trial: its
// incremental Tracker when the configured predictor is the production
// EarlyCurve (warm-starting refits and skipping them outright when no new
// points arrived), or the configured TrendPredictor as-is otherwise.
func (o *Orchestrator) trendFor(st *trialState) earlycurve.TrendPredictor {
	p, ok := o.cfg.Trend.(*earlycurve.Predictor)
	if !ok {
		return o.cfg.Trend
	}
	if st.trend == nil {
		st.trend = p.NewTracker()
	}
	return st.trend
}

// stepTarget is the whole-step count at which the assignment's trial stops
// in this phase: the phase limit, or the precomputed plateau step if that
// comes first (§III-C's convergence special case).
func (o *Orchestrator) stepTarget(st *trialState) int {
	target := st.limit
	if cs, ok := st.tr.ConvergeStep(o.cfg.ConvergeWindow, o.cfg.ConvergeTol); ok && cs < target {
		target = cs
	}
	return target
}

// assignmentTrigger computes the next instant at which the assignment needs
// attention: trigger-step completion (or plateau), the proactive-restart
// horizon (spot only — on-demand instances have no refund to farm), or —
// for oversized trials — the next periodic-checkpoint tick. Completion is
// only priced out as far as the earlier of those horizons, so the per-trial
// step-cost prefix sums grow incrementally with actual progress instead of
// being built for the whole trajectory up front.
func (o *Orchestrator) assignmentTrigger(a *assignment) time.Time {
	var next time.Time
	if !a.inst.OnDemand {
		next = a.deployedAt.Add(o.cfg.RestartAfter)
	}
	if a.oversized {
		if p := a.lastCkptAt.Add(a.cadence); next.IsZero() || p.Before(next) {
			next = p
		}
	}
	from := a.lastAdvance
	if from.Before(a.busyAt) {
		from = a.busyAt
	}
	cap := math.Inf(1)
	if !next.IsZero() {
		cap = next.Sub(from).Seconds()
	}
	if cap >= 0 {
		if need, ok := a.st.tr.SecondsToReachCapped(a.inst.Type, o.stepTarget(a.st), cap); ok {
			// Round up so the advance slice is never a hair short of the
			// step boundary (RunFor snaps the residual dust).
			t := from.Add(time.Duration(math.Ceil(need * float64(time.Second))))
			if next.IsZero() || t.Before(next) {
				next = t
			}
		}
	}
	return next
}

// nextWakeup returns the earliest instant at which anything can happen: an
// assignment trigger, a scheduled cluster event (notice/revocation), or —
// when deployment is blocked on the market — the next price tick.
func (o *Orchestrator) nextWakeup(now time.Time, blocked bool) (time.Time, bool) {
	var best time.Time
	found := false
	consider := func(at time.Time) {
		if at.IsZero() {
			return
		}
		if !found || at.Before(best) {
			best, found = at, true
		}
	}
	for _, st := range o.trials {
		if a := st.a; a != nil && !a.dead {
			consider(o.assignmentTrigger(a))
		}
	}
	if at, ok := o.cluster.Clock().NextEventTime(); ok {
		consider(at)
	}
	if blocked {
		// A rejected spot request can only succeed once the cluster's
		// observable state changes: the next price tick in a pool market,
		// a pending notice/revocation, or a refund-window boundary.
		if at, ok := o.cluster.NextInterestingAt(o.pool); ok {
			consider(at)
		}
	}
	if found && best.Before(now) {
		best = now
	}
	return best, found
}

// advance runs the trial for the compute time elapsed since the last
// advance, accumulating throughput for the per-segment observation.
func (o *Orchestrator) advance(a *assignment, now time.Time) {
	if a.dead || now.Before(a.busyAt) {
		return
	}
	from := a.lastAdvance
	if from.Before(a.busyAt) {
		from = a.busyAt
	}
	secs := now.Sub(from).Seconds()
	if secs <= 0 {
		return
	}
	before := a.st.tr.Progress()
	_, used := a.st.tr.RunFor(a.inst.Type, secs, a.st.limit)
	a.lastAdvance = now
	a.obsSecs += used
	a.obsSteps += a.st.tr.Progress() - before
}

// observeSegment folds the finished segment's measured seconds-per-step
// into the performance matrix (line 36 of Algorithm 1).
func (o *Orchestrator) observeSegment(a *assignment) {
	if a.obsSteps > 1e-9 && a.obsSecs > 0 {
		o.perf.Observe(a.inst.Type.Name, a.st.tr.ID(), a.obsSecs/a.obsSteps)
	}
	a.obsSecs, a.obsSteps = 0, 0
}

// onNotice handles a termination notice (lines 24–26): bring the trial up to
// date and checkpoint it inside the two-minute window — unless the
// checkpoint is too large to fit, in which case the most recent periodic
// checkpoint already in object storage is the recovery point and the work
// since then is lost. The resilience strategy then decides whether to
// migrate: request a replacement in a (policy-chosen, possibly different)
// market immediately, overlapping the restore with the remaining notice
// lead time instead of waiting out the redeploy spacing.
func (o *Orchestrator) onNotice(a *assignment, at time.Time) {
	if a.dead || a.inst == nil {
		return
	}
	st, id := a.st, a.st.tr.ID()
	o.notices++
	st.spotFailures++
	o.advance(a, at)
	lost := 0
	if a.oversized {
		// Work past the last periodic snapshot rewinds at restore time.
		lost = a.st.tr.CompletedSteps() - a.lastCkptSteps
		if lost < 0 {
			lost = 0
		}
		o.lostSteps += lost
	}
	o.trc.Emit(obs.Event{
		VT:    at,
		Kind:  obs.KindNotice,
		Trial: id,
		Inst:  a.inst.ID,
		Type:  a.inst.Type.Name,
		B:     float64(lost),
		N:     int64(st.spotFailures),
	})
	if !a.oversized {
		o.checkpoint(a, at)
	}
	// Feed the revocation-rate estimate: this segment's spot exposure
	// ended in a revocation.
	o.rates.ObserveExposure(a.inst.Type.Name, at.Sub(a.deployedAt))
	o.rates.ObserveRevocation(a.inst.Type.Name)
	o.recordSegment(a)
	a.dead = true
	// The cluster revokes the instance itself two minutes later.
	st.noticedAt = at
	st.lastNoticed = a.inst.Type.Name
	if st.finished {
		return
	}
	o.waiting = append(o.waiting, st)
	act := o.res.OnNotice(resilience.NoticeContext{
		TrialID:  id,
		TypeName: a.inst.Type.Name,
		PoolSize: len(o.pool),
		// A notice at the deploy instant means the market is in a doom
		// window; immediate redeploy there would livelock, so migration
		// is only offered for notices that arrive mid-segment.
		Immediate: !at.After(a.deployedAt),
	})
	if act.Migrate {
		st.migrating, st.migrateExclude = true, act.ExcludeType
		o.migrations++
		o.trc.Emit(obs.Event{
			VT:    at,
			Kind:  obs.KindMigration,
			Trial: id,
			Inst:  a.inst.ID,
			Type:  a.inst.Type.Name,
			Label: act.ExcludeType,
			A:     cloudsim.NoticeLeadTime.Seconds(),
		})
	}
}

// checkpoint writes the trial's state to object storage. The encode reuses
// one orchestrator-owned buffer across the campaign (the store copies on
// Put), so checkpointing never allocates in steady state.
func (o *Orchestrator) checkpoint(a *assignment, _ time.Time) {
	o.ckptBuf = a.st.tr.AppendCheckpoint(o.ckptBuf[:0])
	cpus := 1
	if a.inst != nil {
		cpus = a.inst.Type.CPUs
	}
	o.store.PutSized(ckptKey(a.st.tr.ID()), o.ckptBuf, a.st.tr.CheckpointMB(), cpus)
	o.ckptSetup += o.cfg.CheckpointSetup
	a.lastCkptAt = o.cluster.Clock().Now()
	a.lastCkptSteps = a.st.tr.CompletedSteps()
	instID := ""
	if a.inst != nil {
		instID = a.inst.ID
	}
	o.trc.Emit(obs.Event{
		VT:    a.lastCkptAt,
		Kind:  obs.KindCheckpoint,
		Trial: a.st.tr.ID(),
		Inst:  instID,
		A:     a.st.tr.CheckpointMB(),
		B:     a.cadence.Seconds(),
		N:     int64(a.st.tr.CompletedSteps()),
	})
}

// endAssignment terminates the instance (user-initiated) and records the
// step segment.
func (o *Orchestrator) endAssignment(a *assignment, terminate bool) {
	if a.dead {
		return
	}
	o.recordSegment(a)
	a.dead = true
	if a.inst != nil && !a.inst.OnDemand {
		// Survived spot time drives the revocation-rate denominator just
		// like revoked time does — without it the estimator would see
		// only doomed segments and overshoot the rate.
		o.rates.ObserveExposure(a.inst.Type.Name, o.cluster.Clock().Now().Sub(a.deployedAt))
		// A spot segment that ended without a notice is evidence the
		// market is livable; clear the trial's failure streak.
		if n := a.st.spotFailures; n > 0 {
			o.trc.Emit(obs.Event{
				VT:    o.cluster.Clock().Now(),
				Kind:  obs.KindStreakClear,
				Trial: a.st.tr.ID(),
				N:     int64(n),
			})
		}
		a.st.spotFailures = 0
	}
	if terminate && a.inst != nil && a.inst.Running() {
		// Termination failures would mean double bookkeeping bugs.
		if err := o.cluster.Terminate(a.inst.ID); err != nil {
			panic(fmt.Sprintf("core: terminating %s: %v", a.inst.ID, err))
		}
	}
}

func (o *Orchestrator) recordSegment(a *assignment) {
	o.observeSegment(a)
	steps := a.st.tr.CompletedSteps() - a.stepsBefore
	if steps < 0 {
		steps = 0
	}
	instID := ""
	if a.inst != nil {
		instID = a.inst.ID
	}
	o.segments = append(o.segments, segment{instanceID: instID, trialID: a.st.tr.ID(), steps: steps})
	o.trc.Emit(obs.Event{
		VT:    o.cluster.Clock().Now(),
		Kind:  obs.KindSegment,
		Trial: a.st.tr.ID(),
		Inst:  instID,
		N:     int64(steps),
	})
}

// activeOnDemand counts live assignments on on-demand capacity (fed to
// policies so fleet-level pins stay bounded).
func (o *Orchestrator) activeOnDemand() int {
	n := 0
	for _, st := range o.trials {
		if a := st.a; a != nil && !a.dead && a.inst != nil && a.inst.OnDemand {
			n++
		}
	}
	return n
}

// incumbentBest returns the trial whose last observed metric currently
// leads the campaign, or "" before any trial has reported a point.
// MixedFleet-style policies pin it on reliable capacity. It applies the
// engine-wide leaderboard rule (search.BestByLast: the first trial in
// submission order with the strictly lowest last value) directly over the
// trial records through the cheap LastPoint accessor — this runs at every
// deployment decision, so it must not pay for an ID lookup per trial or
// the full tuner-facing status snapshot.
func (o *Orchestrator) incumbentBest() string {
	best, bestVal := "", math.Inf(1)
	for _, st := range o.trials {
		if p, ok := st.tr.LastPoint(); ok && p.Value < bestVal {
			best, bestVal = st.tr.ID(), p.Value
		}
	}
	return best
}
