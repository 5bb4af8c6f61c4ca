package scenario

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"spottune/internal/campaign"
	"spottune/internal/earlycurve"
	"spottune/internal/invariants"
	"spottune/internal/obs"
	"spottune/internal/policy"
	"spottune/internal/stats"
	"spottune/internal/trial"
	"spottune/internal/workload"
)

// replicateStride derives replicate seeds from a spec seed (splitmix64's
// odd increment, so streams never collide for realistic replicate counts).
// Replicate 0 uses the spec seed unchanged, so a one-replicate grid runs
// every campaign on its spec's own seed.
const replicateStride = 0x9E3779B97F4A7C15

// ReplicateSeed is the campaign seed of replicate r of a spec — exported so
// the multi-tenant service derives tenant seeds on the same stream the
// matrix runner uses, keeping cross-harness results comparable.
func ReplicateSeed(specSeed uint64, r int) uint64 {
	return specSeed + uint64(r)*replicateStride
}

// StreamOptions tunes a streaming matrix run. The embedded Options carry the
// grid axes; the streaming fields bound memory and wire the per-cell
// consumers.
type StreamOptions struct {
	Options

	// Replicates is the seed axis: each spec's cell block is repeated this
	// many times with derived campaign seeds (default 1).
	Replicates int
	// Workers caps concurrent cells (default GOMAXPROCS).
	Workers int
	// OnCell, when set, receives every finished cell in grid order
	// (spec-major, then replicate, tuner, strategy, policy). A returned error aborts
	// the run. Cells are not retained by the runner — this callback is the
	// only way to observe per-cell results, which is what keeps memory
	// independent of grid size.
	OnCell func(Cell) error
	// Progress, when set, receives a live single-line progress report
	// (carriage-return terminated) roughly every ProgressEvery cells.
	Progress io.Writer
	// ProgressEvery is the progress cadence in cells (default: ~200 updates
	// across the grid).
	ProgressEvery int
}

// StreamSummary is the bounded-memory aggregate of a streamed grid: exact
// counts and order-independent quantile sketches per headline metric. Its
// size depends on the metric dynamic range, never on the cell count.
type StreamSummary struct {
	Cells      int
	Violations int

	// Cost/JCTHours/RefundFrac sketch the per-cell campaign outcomes
	// (stats.DefaultSketchAlpha relative accuracy; identical bits for any
	// worker scheduling — see stats.QuantileSketch).
	Cost       *stats.QuantileSketch
	JCTHours   *stats.QuantileSketch
	RefundFrac *stats.QuantileSketch

	// Metrics aggregates every cell's flight-recorder metrics (event
	// counters plus latency/size/cost histograms), merged in grid order by
	// the in-order emitter. Nil unless Options.Trace is on.
	Metrics *obs.Metrics
}

// specBlock is the shared, read-only world for every cell of one spec:
// environment (traces, SoA store, predictors), benchmark, and curves.
type specBlock struct {
	spec       Spec
	env        *campaign.Environment
	bench      *workload.Benchmark
	curves     workload.Curves
	tuners     []string
	strategies []string
}

// cellJob locates one cell in the grid.
type cellJob struct {
	block    *specBlock
	rep      int
	tuner    string
	strategy string
	policy   string
}

// Stream executes the scenario × replicate × tuner × strategy × policy grid with
// bounded memory: environments are built once per spec and shared read-only,
// one builder goroutine builds spec k+1's world while spec k's cells run,
// cells fan out over a campaign.Fan worker pool whose window keeps dispatch
// at most 4× the worker count ahead of the in-order emitter, each worker
// reuses one EarlyCurve fit memo (its SoA world) across every cell it runs,
// and results stream into quantile sketches plus the optional in-order
// OnCell callback instead of an in-memory cell table, so 10^5-cell grids run
// in the same footprint as the quick battery. Results do not depend on the
// worker count. A cell that fails or panics stops the run with an error
// naming the cell; cells already in flight finish and are dropped. Specs
// are validated before any world is built; a world that still fails to build
// stops the run with its error after the earlier specs' cells.
func (m Matrix) Stream(opt StreamOptions) (*StreamSummary, error) {
	o := opt.Options.withDefaults()
	if len(m.Specs) == 0 {
		return nil, fmt.Errorf("scenario: matrix has no specs")
	}
	for _, t := range o.Tuners {
		if err := validTuner(t); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	for _, r := range o.Strategies {
		if err := validStrategy(r); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	seen := map[string]bool{}
	for _, s := range m.Specs {
		if seen[s.Name] {
			return nil, fmt.Errorf("scenario: duplicate spec name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	reps := opt.Replicates
	if reps <= 0 {
		reps = 1
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	if err := validWorkload(o.Workload); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	specs := make([]Spec, len(m.Specs))
	total := 0
	for i, raw := range m.Specs {
		specs[i] = raw.withDefaults(o)
		tuners, strategies := specs[i].axes(o)
		total += reps * len(tuners) * len(strategies) * len(o.Policies)
	}
	progressEvery := opt.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = total / 200
		if progressEvery < 1 {
			progressEvery = 1
		}
	}

	summary := &StreamSummary{
		Cost:       stats.NewQuantileSketch(stats.DefaultSketchAlpha),
		JCTHours:   stats.NewQuantileSketch(stats.DefaultSketchAlpha),
		RefundFrac: stats.NewQuantileSketch(stats.DefaultSketchAlpha),
	}
	if o.Trace {
		summary.Metrics = obs.NewMetrics()
	}

	// Grid order is job order, so the fan-out's in-order emit is OnCell's
	// deterministic grid order. One fit memo and one perf cache per worker:
	// every campaign a worker runs shares solved EarlyCurve stage fits and
	// ground-truth step-time curves (both content-addressed and size-capped,
	// so reuse is bit-identical and bounded). Worlds arrive from the builder
	// in spec order while earlier blocks' cells run; a build error ends the
	// grid there.
	blocks, stop := buildBlocks(specs, o)
	defer stop()
	var buildErr error
	grid := func(yield func(cellJob) bool) {
		for built := range blocks {
			if built.err != nil {
				buildErr = built.err
				return
			}
			b := built.block
			for r := 0; r < reps; r++ {
				for _, tname := range b.tuners {
					for _, rname := range b.strategies {
						for _, pname := range o.Policies {
							if !yield(cellJob{block: b, rep: r, tuner: tname, strategy: rname, policy: pname}) {
								return
							}
						}
					}
				}
			}
		}
	}
	err := campaign.Fan(grid, workers, 4*workers,
		func() cellState { return cellState{memo: earlycurve.NewFitMemo(), perfc: trial.NewPerfCache()} },
		func(st cellState, job cellJob) (Cell, error) { return runCell(job, o, st) },
		func(job cellJob, cell Cell, err error) error {
			if err != nil {
				return fmt.Errorf("scenario: %s/%s/%s (replicate %d): %w",
					job.block.spec.Name, job.tuner, job.policy, job.rep, err)
			}
			summary.Cells++
			summary.Violations += len(cell.Violations)
			summary.Cost.Add(cell.Cost)
			summary.JCTHours.Add(cell.JCTHours)
			summary.RefundFrac.Add(cell.RefundFrac)
			if summary.Metrics != nil && cell.Trace != nil {
				// Counters add and sketches merge order-independently, so
				// the aggregate is worker-count invariant like the cells.
				summary.Metrics.Merge(obs.CampaignMetrics(cell.Trace))
			}
			if opt.OnCell != nil {
				if err := opt.OnCell(cell); err != nil {
					return fmt.Errorf("scenario: cell %s/%s/%s: %w", cell.Scenario, cell.Tuner, cell.Policy, err)
				}
			}
			if opt.Progress != nil && (summary.Cells%progressEvery == 0 || summary.Cells == total) {
				fmt.Fprintf(opt.Progress, "\rstream: %d/%d cells, %d violations",
					summary.Cells, total, summary.Violations)
			}
			return nil
		})
	if err == nil {
		// A cell error precedes the failed world in grid order, so it wins.
		err = buildErr
	}
	if err != nil {
		return nil, err
	}
	if opt.Progress != nil {
		fmt.Fprintln(opt.Progress)
	}
	return summary, nil
}

// builtBlock is one spec's world, or the error that stopped the build.
type builtBlock struct {
	block *specBlock
	err   error
}

// buildBlocks starts the world builder: one goroutine that assembles the
// resolved specs' shared worlds in spec order and hands each to the returned
// channel, so cells of block k run while block k+1 builds. Environments are
// the expensive part (trace generation + predictor training), so specs that
// differ only in faults share one fault-free base build, and specs on the
// same workload share one benchmark and one curve set. The channel closes
// after the last block or after the first error. stop ends the builder and
// waits for it; the caller defers it so no builder outlives the run.
func buildBlocks(specs []Spec, o Options) (blocks <-chan builtBlock, stop func()) {
	out := make(chan builtBlock)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(out)
		w := &worlds{
			baseEnvs: map[envKey]*campaign.Environment{},
			lastUse:  map[envKey]int{},
			benches:  map[string]*workload.Benchmark{},
			curves:   map[string]workload.Curves{},
		}
		for i, s := range specs {
			w.lastUse[s.key()] = i
		}
		for i, s := range specs {
			b, err := w.build(i, s, o)
			select {
			case out <- builtBlock{block: b, err: err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return out, func() {
		close(done)
		wg.Wait()
	}
}

// worlds holds the builder's shared pieces. A base environment is dropped
// once the last spec that shares it is built, so it lives only as long as
// blocks still running cells reference it.
type worlds struct {
	baseEnvs map[envKey]*campaign.Environment
	lastUse  map[envKey]int
	benches  map[string]*workload.Benchmark
	curves   map[string]workload.Curves
}

// build assembles resolved spec i's block. A panic while building becomes
// the block's error: it would otherwise take down the process from the
// builder goroutine.
func (w *worlds) build(i int, s Spec, o Options) (b *specBlock, err error) {
	defer func() {
		if p := recover(); p != nil {
			b, err = nil, fmt.Errorf("scenario: %s: building world: %w", s.Name, &campaign.PanicError{Value: p})
		}
	}()
	key := s.key()
	base, ok := w.baseEnvs[key]
	if !ok {
		bare := s
		bare.Faults = nil
		if base, err = bare.Environment(o); err != nil {
			return nil, err
		}
		w.baseEnvs[key] = base
	}
	if w.lastUse[key] == i {
		delete(w.baseEnvs, key)
	}
	env, err := s.withFaults(base)
	if err != nil {
		return nil, err
	}
	bench, ok := w.benches[s.Workload]
	if !ok {
		bench, err = workload.SuiteByName(s.Workload, workload.Config{Seed: o.Seed, Scale: o.Scale})
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
		}
		w.benches[s.Workload] = bench
	}
	cv, ok := w.curves[s.Workload]
	if !ok {
		if o.Quick {
			cv = bench.SyntheticCurves(o.Seed)
		} else {
			cv, err = bench.RecordCurves()
			if err != nil {
				return nil, fmt.Errorf("scenario: %s: recording curves: %w", s.Name, err)
			}
		}
		w.curves[s.Workload] = cv
	}
	tuners, strategies := s.axes(o)
	return &specBlock{spec: s, env: env, bench: bench, curves: cv, tuners: tuners, strategies: strategies}, nil
}

// axes returns the tuner and strategy axes of a resolved spec's block: the
// matrix axes unless the spec pins one.
func (s Spec) axes(o Options) (tuners, strategies []string) {
	tuners, strategies = o.Tuners, o.Strategies
	if s.Tuner != "" {
		tuners = []string{s.Tuner}
	}
	if s.Resilience != "" {
		strategies = []string{s.Resilience}
	}
	return tuners, strategies
}

// cellState is one stream worker's campaign caches.
type cellState struct {
	memo  *earlycurve.FitMemo
	perfc *trial.PerfCache
}

// runCell executes one campaign cell against its spec's shared world,
// auditing the final simulator state in place (no state is retained past the
// returned Cell).
func runCell(job cellJob, o Options, st cellState) (Cell, error) {
	b := job.block
	var violations []invariants.Violation
	var rec *obs.Recording
	copt := campaign.Options{
		Theta:      o.Theta,
		Seed:       ReplicateSeed(b.spec.Seed, job.rep),
		Tuner:      job.tuner,
		Policy:     job.policy,
		Resilience: job.strategy,
		Deadline:   b.spec.Deadline,
		Budget:     b.spec.Budget,
		BaseType:   b.spec.BaseType,
		PolicyParams: policy.Params{
			Allocation: b.spec.Allocation,
		},
		Trace: o.Trace,
		// The worker's shared fit memo rides in on the trend predictor, and
		// its perf cache shares ground-truth step curves across same-seed
		// cells; both reuses are bit-identical to cold builds, so this
		// changes wall-clock only.
		Trend:     &earlycurve.Predictor{Memo: st.memo},
		PerfCache: st.perfc,
	}
	if !o.SkipInvariants || o.Trace {
		copt.Inspect = func(d *campaign.RunDetail) error {
			if rec = d.Trace; rec != nil {
				// The campaign stamped tuner/policy/workload/seed; the cell
				// coordinates are the scenario layer's to add.
				rec.Meta.Scenario = b.spec.Name
				rec.Meta.Replicate = job.rep
			}
			if !o.SkipInvariants {
				violations = append(violations, invariants.Check(StateFor(d))...)
			}
			return nil
		}
	}
	rep, err := b.env.RunPolicy(b.bench, b.curves, copt)
	if err != nil {
		return Cell{}, err
	}
	return Cell{
		Scenario:   b.spec.Name,
		Regime:     b.spec.Regime,
		Tuner:      job.tuner,
		Strategy:   job.strategy,
		Replicate:  job.rep,
		PolicyRow:  campaign.NewPolicyRow(job.policy, b.bench.Name, rep),
		Violations: violations,
		Trace:      rec,
	}, nil
}
