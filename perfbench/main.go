// Command perfbench is the repository benchmark: it replays the simulator's
// three representative workloads (battery, service, revpred-sweep) through
// the packages' public entry points, checks every campaign's output, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload battery --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the metric table and the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec names one reported metric. BENCHMARK.json at the repository
// root declares the same names and units (pinned by the tests).
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"campaigns_per_ref_s", "1/ref_s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"alloc_kb_per_campaign", "KB"},
	{"completed_frac", "frac"},
	{"sim_cost_usd", "USD"},
	{"sim_jct_h", "h"},
}

var perLayer = []metricSpec{
	{"market.worlds", "count"},
	{"market.world_build_ms", "ms"},
	{"market.world_build_share", "frac"},
	{"policy.decide_calls", "count"},
	{"policy.decide_us_p50", "us"},
	{"policy.decide_us_p99", "us"},
	{"policy.decide_self_share", "frac"},
	{"policy.deploy_yield", "frac"},
	{"cloudsim.quote_calls", "count"},
	{"cloudsim.quotes_per_decide", "count"},
	{"cloudsim.quote_us_p50", "us"},
	{"cloudsim.quote_share", "frac"},
	{"revpred.train_s", "s"},
	{"revpred.predict_calls", "count"},
	{"revpred.predict_us_p50", "us"},
	{"revpred.predict_us_p99", "us"},
	{"revpred.predict_share", "frac"},
	{"earlycurve.fit_calls", "count"},
	{"earlycurve.fit_us_p50", "us"},
	{"earlycurve.fit_us_p99", "us"},
	{"earlycurve.fit_share", "frac"},
	{"search.tuner_calls", "count"},
	{"search.tuner_self_share", "frac"},
	{"core.campaign_ms_p50", "ms"},
	{"core.campaign_ms_p99", "ms"},
	{"core.turns", "count"},
	{"core.host_us_per_turn", "us"},
	{"core.deployments", "count"},
	{"core.notices", "count"},
	{"core.self_share", "frac"},
	{"service.waves", "count"},
	{"service.ms_per_wave", "ms"},
	{"go.gc_cpu_share", "frac"},
	{"go.mallocs_per_campaign", "count"},
	{"trace.untraced_campaigns_per_s", "1/s"},
	{"trace.traced_campaigns_per_s", "1/s"},
	{"trace.overhead", "ratio"},
	{"host.speed", "ratio"},
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sizes    sizes
}

// result is one run's verdict and metrics.
type result struct {
	attempted, failed int
	errs              []string
	passes            []*tally
	setups            []float64 // seconds of each set-up
	digest            uint64
	metrics           map[string]float64
	manifest          manifest
}

// manifest records what produced a result.
type manifest struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Trace      bool           `json:"trace"`
	Seconds    float64        `json:"seconds"`
	GitRev     string         `json:"git_rev"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	CPU        string         `json:"cpu"`
	Sizes      map[string]int `json:"sizes"`
	HostSpeed  float64        `json:"host_speed"`
	Passes     int            `json:"passes"`
	Digest     string         `json:"digest"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	opt := options{sizes: defaultSizes}
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&opt.seed, "seed", 1, "run seed; every input is derived from it")
	fs.Float64Var(&opt.seconds, "seconds", 30, "host seconds the timed phase measures (at least one pass)")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	opt.trace = *traceFlag == 1
	res, err := measure(opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, res, opt.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: failure:", e)
	}
	if res.failed > 0 {
		return 3
	}
	return 0
}

// measure sets the workload up several times, then runs the timed phase:
// untraced passes for the end-to-end metrics, or alternating untraced and
// traced passes for the per-layer ones.
func measure(opt options) (*result, error) {
	w, ok := lookupWorkload(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	registerWrappers()
	setupTr := new(tracer)
	var b bench
	var setups []float64
	speeds := []float64{calibrate()}
	for i := 0; i < max(1, opt.sizes.SetupReps); i++ {
		start := time.Now()
		var err error
		if b, err = w.setup(opt.seed, opt.sizes, setupTr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(start)
		speeds = append(speeds, calibrate())
		setups = append(setups, refSeconds(d, speeds[i], speeds[i+1]))
	}
	res := &result{manifest: newManifest(opt, b.describe()), setups: setups}
	res.manifest.HostSpeed = median(speeds)
	if opt.trace {
		measureTraced(res, b, opt, setupTr, setups)
	} else {
		measureUntraced(res, b, opt, median(setups))
	}
	res.manifest.Digest = fmt.Sprintf("%016x", res.digest)
	return res, nil
}

func measureUntraced(res *result, b bench, opt options, setupS float64) {
	before := readRuntime()
	heap := startHeapSampler()
	var passes []*tally
	var peaks, rates []float64
	speed := calibrate()
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for len(passes) == 0 || time.Now().Before(deadline) {
		heap.reset()
		p := b.pass(nil)
		peaks = append(peaks, float64(heap.peak())/(1<<20))
		before := speed
		speed = calibrate()
		p.refWall = refSeconds(p.wall, before, speed)
		passes = append(passes, p)
		rates = append(rates, div(float64(p.reports), p.refWall))
	}
	heap.stop()
	after := readRuntime()

	res.verify(passes)
	first := passes[0]
	res.manifest.Passes = len(passes)
	res.metrics = map[string]float64{
		"campaigns_per_ref_s":   median(rates),
		"setup_s":               setupS,
		"peak_heap_mb":          median(peaks),
		"alloc_kb_per_campaign": div(after.allocBytes-before.allocBytes, float64(reports(passes))) / 1024,
		"completed_frac":        1 - div(float64(res.failed), float64(res.attempted)),
		"sim_cost_usd":          first.meanCost(),
		"sim_jct_h":             first.meanJCT(),
	}
}

func measureTraced(res *result, b bench, opt options, setupTr *tracer, setups []float64) {
	tr := new(tracer)
	var untraced, traced []*tally
	var rt runtimeDelta
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for len(traced) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		before := readRuntime()
		untraced = append(untraced, b.pass(nil))
		rt.add(before, readRuntime())
		runtime.GC()
		active.Store(tr)
		traced = append(traced, b.pass(tr))
		active.Store(nil)
	}
	res.verify(append(append([]*tally(nil), untraced...), traced...))
	res.manifest.Passes = len(untraced) + len(traced)
	res.metrics = layerMetrics(tr, setupTr, len(setups), untraced, traced, rt, median(setups))
	res.metrics["host.speed"] = res.manifest.HostSpeed
}

// verify checks every pass against the first: each must deliver the same
// simulated outputs (digest), and any pass that does not counts all its
// campaigns as failed.
func (res *result) verify(passes []*tally) {
	res.passes = passes
	res.digest = passes[0].digest
	for i, p := range passes {
		res.attempted += p.expected
		failed := p.failed
		if p.digest != res.digest {
			failed = p.expected
			res.errs = append(res.errs, fmt.Sprintf("pass %d digest %016x differs from pass 0 (%016x)", i, p.digest, res.digest))
		}
		res.failed += failed
		res.errs = append(res.errs, p.errs...)
	}
}

// layerMetrics derives the per-layer metrics of the traced passes. Counts
// are per pass; shares divide by the summed campaign span time.
func layerMetrics(tr, setupTr *tracer, setupReps int, untraced, traced []*tally, rt runtimeDelta, setupS float64) map[string]float64 {
	n := float64(len(traced))
	perPass := func(l *layer) float64 { return float64(l.calls) / n }
	span := float64(tr.campaign.total)
	share := func(d time.Duration) float64 { return div(float64(d), span) }
	meanMS := func(l *layer) float64 { return div(float64(l.total)/float64(time.Millisecond), float64(l.calls)) }

	uRates, tRates, walls := make([]float64, len(untraced)), make([]float64, len(traced)), make([]float64, len(untraced))
	for i, t := range untraced {
		uRates[i], walls[i] = t.rate(), t.wall.Seconds()
	}
	for i, t := range traced {
		tRates[i] = t.rate()
	}
	first := traced[0]

	// Battery builds its worlds inside the timed pass (timed here from
	// outside); the other workloads build theirs once, in set-up.
	worlds, buildMS := perPass(&tr.world), meanMS(&tr.world)
	if tr.world.calls == 0 {
		worlds = div(float64(setupTr.world.calls), float64(setupReps))
		buildMS = meanMS(&setupTr.world)
	}
	decides := perPass(&tr.decide)
	return map[string]float64{
		"market.worlds":            worlds,
		"market.world_build_ms":    buildMS,
		"market.world_build_share": div(worlds*buildMS/1000, setupS+median(walls)),

		"policy.decide_calls":      decides,
		"policy.decide_us_p50":     tr.decide.quantile(0.50, time.Microsecond),
		"policy.decide_us_p99":     tr.decide.quantile(0.99, time.Microsecond),
		"policy.decide_self_share": share(tr.decide.total - tr.quote.total - tr.predict.total),
		"policy.deploy_yield":      div(float64(first.deployments), decides),

		"cloudsim.quote_calls":       perPass(&tr.quote),
		"cloudsim.quotes_per_decide": div(float64(tr.quote.calls), float64(tr.decide.calls)),
		"cloudsim.quote_us_p50":      tr.quote.quantile(0.50, time.Microsecond),
		"cloudsim.quote_share":       share(tr.quote.total),

		"revpred.train_s":        setupTr.train.quantile(0.50, time.Second),
		"revpred.predict_calls":  perPass(&tr.predict),
		"revpred.predict_us_p50": tr.predict.quantile(0.50, time.Microsecond),
		"revpred.predict_us_p99": tr.predict.quantile(0.99, time.Microsecond),
		"revpred.predict_share":  share(tr.predict.total),

		"earlycurve.fit_calls":  perPass(&tr.fit),
		"earlycurve.fit_us_p50": tr.fit.quantile(0.50, time.Microsecond),
		"earlycurve.fit_us_p99": tr.fit.quantile(0.99, time.Microsecond),
		"earlycurve.fit_share":  share(tr.fit.total),

		"search.tuner_calls":      perPass(&tr.tuner),
		"search.tuner_self_share": share(tr.tuner.total - tr.fit.total),

		"core.campaign_ms_p50":    tr.campaign.quantile(0.50, time.Millisecond),
		"core.campaign_ms_p99":    tr.campaign.quantile(0.99, time.Millisecond),
		"core.turns":              float64(first.turns),
		"core.host_us_per_turn":   div(span/float64(time.Microsecond), float64(first.turns)*n),
		"core.deployments":        float64(first.deployments),
		"core.notices":            float64(first.notices),
		"core.self_share":         share(tr.campaign.total - tr.decide.total - tr.tuner.total),
		"service.waves":           float64(first.waves),
		"service.ms_per_wave":     div(median(walls)*1000, float64(first.waves)),
		"go.gc_cpu_share":         div(rt.gcCPU, rt.busyCPU),
		"go.mallocs_per_campaign": div(rt.mallocs, float64(reports(untraced))),

		"trace.untraced_campaigns_per_s": median(uRates),
		"trace.traced_campaigns_per_s":   median(tRates),
		"trace.overhead":                 div(median(uRates), median(tRates)),
	}
}

// ---- Go runtime -------------------------------------------------------

type runtimeSnapshot struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSnapshot {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSnapshot{allocBytes: v(0), allocObjects: v(1), gcCPU: v(2), totalCPU: v(3), idleCPU: v(4)}
}

// runtimeDelta sums runtime counters over the untraced passes of a traced
// run.
type runtimeDelta struct {
	mallocs, gcCPU, busyCPU float64
}

func (d *runtimeDelta) add(before, after runtimeSnapshot) {
	d.mallocs += after.allocObjects - before.allocObjects
	d.gcCPU += after.gcCPU - before.gcCPU
	d.busyCPU += (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
}

// heapSampler tracks the peak live heap (the heap the latest GC cycle
// marked live) while passes run.
type heapSampler struct {
	max   atomic.Uint64
	stopc chan struct{}
	done  chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64(); ; {
				old := h.max.Load()
				if v <= old || h.max.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// reset starts a new peak window; peak returns the window's peak in bytes.
func (h *heapSampler) reset()       { h.max.Store(0) }
func (h *heapSampler) peak() uint64 { return h.max.Load() }

// stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}

// ---- output -----------------------------------------------------------

func newManifest(opt options, sz map[string]int) manifest {
	m := manifest{
		Workload:   opt.workload,
		Seed:       opt.seed,
		Trace:      opt.trace,
		Seconds:    opt.seconds,
		GitRev:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Sizes:      sz,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.GitRev = s.Value
			}
		}
	}
	return m
}

// cpuModel reads the processor model from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the manifest and a metric table, then the result object as
// the last line.
func report(w io.Writer, res *result, traced bool) error {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	man, err := json.Marshal(res.manifest)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "manifest %s\n", man)
	fmt.Fprintf(w, "set-ups: %v ref_s\n", res.setups)
	for i, p := range res.passes {
		fmt.Fprintf(w, "pass %d: %d/%d campaigns, %d failed, %.3f s (%.3f ref_s), %.2f/s, digest %016x\n",
			i, p.reports, p.expected, p.failed, p.wall.Seconds(), p.refWall, p.rate(), p.digest)
	}
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Fprintf(w, "%-32s %16.6f %s\n", s.name, v, s.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// ---- helpers ----------------------------------------------------------

// reports counts the campaign reports the passes delivered.
func reports(passes []*tally) int {
	n := 0
	for _, p := range passes {
		n += p.reports
	}
	return n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// div is a/b, or 0 when b is 0 (a layer that did not run).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
