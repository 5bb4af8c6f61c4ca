package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spottune/internal/earlycurve"
	"spottune/internal/market"
	"spottune/internal/policy"
	"spottune/internal/revpred"
	"spottune/internal/search"
)

// reservoirSize bounds the per-layer latency samples kept for percentiles.
// Layers with more calls keep a uniform random subset (Algorithm R), so
// memory stays flat however long the traced pass runs.
const reservoirSize = 1 << 15

// layer accumulates the spans recorded around calls into one layer: call
// count, summed duration, and a reservoir of per-call durations.
type layer struct {
	mu      sync.Mutex
	calls   int64
	total   time.Duration
	samples []time.Duration
	rng     uint64
}

func (l *layer) add(d time.Duration) {
	l.mu.Lock()
	l.calls++
	l.total += d
	if len(l.samples) < reservoirSize {
		l.samples = append(l.samples, d)
	} else {
		// xorshift64: a deterministic stream is enough to pick slots.
		if l.rng == 0 {
			l.rng = 0x9E3779B97F4A7C15
		}
		l.rng ^= l.rng << 13
		l.rng ^= l.rng >> 7
		l.rng ^= l.rng << 17
		if j := l.rng % uint64(l.calls); j < reservoirSize {
			l.samples[j] = d
		}
	}
	l.mu.Unlock()
}

// quantile returns the q-quantile of the sampled durations in the given
// unit (nearest rank), or 0 when the layer never ran.
func (l *layer) quantile(q float64, unit time.Duration) float64 {
	l.mu.Lock()
	s := append([]time.Duration(nil), l.samples...)
	l.mu.Unlock()
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)) + 0.5)
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx]) / float64(unit)
}

// tracer collects the spans of the traced passes. Every layer is timed from
// outside the program, around the call the benchmark's wrappers intercept.
//
// Nesting: a campaign span (tuner construction to tuner Finish) contains
// the decide and tuner spans; a decide span contains the quote and predict
// spans; a tuner span contains the fit spans. Self shares subtract the
// children, so the shares sum to 1.
type tracer struct {
	campaign layer // one span per campaign
	decide   layer // policy.Policy.Decide
	quote    layer // MarketView price quotes made inside Decide
	predict  layer // revpred.Predictor.Predict
	tuner    layer // search.Tuner.Next and Finish
	fit      layer // earlycurve.TrendPredictor.PredictFinal
	world    layer // environment (world) builds
	train    layer // revpred.Train over every pool market
}

// active is the tracer the registered wrappers report into. Wrappers only
// run in traced passes, which install their tracer first; a wrapper built
// while none is installed reports into a discarded one.
var active atomic.Pointer[tracer]

func currentTracer() *tracer {
	if tr := active.Load(); tr != nil {
		return tr
	}
	return new(tracer)
}

// wrapPrefix marks the registry names of the tracing wrappers.
const wrapPrefix = "perfbench.traced/"

var (
	registerOnce sync.Once
	// builtinPolicies and builtinTuners are the registries' contents before
	// the wrappers join them: the untraced passes name these explicitly, so
	// "every registered" never picks up a wrapper.
	builtinPolicies []string
	builtinTuners   []string
)

// registerWrappers captures the built-in names, then registers one tracing
// wrapper per built-in policy and tuner under wrapPrefix+name.
func registerWrappers() {
	registerOnce.Do(func() {
		builtinPolicies = policy.Names()
		builtinTuners = search.Names()
		for _, inner := range builtinPolicies {
			policy.Register(wrapPrefix+inner, "timing wrapper around "+inner,
				func(p policy.Params) (policy.Policy, error) {
					pol, err := policy.New(inner, p)
					if err != nil {
						return nil, err
					}
					return &tracedPolicy{inner: pol, tr: currentTracer()}, nil
				})
		}
		for _, inner := range builtinTuners {
			search.Register(wrapPrefix+inner, "timing wrapper around "+inner,
				func(p search.Params) (search.Tuner, error) {
					tun, err := search.New(inner, p)
					if err != nil {
						return nil, err
					}
					tr := currentTracer()
					return &tracedTuner{inner: tun, tr: tr, start: time.Now(), state: tracedState{tr: tr}}, nil
				})
		}
	})
}

// wrapped maps registry names to their tracing wrappers' names.
func wrapped(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = wrapPrefix + n
	}
	return out
}

// tracedPolicy times Decide and hands the inner policy a market view that
// times every quote.
type tracedPolicy struct {
	inner  policy.Policy
	tr     *tracer
	market tracedMarket
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Decide(ctx policy.Context) (policy.Request, error) {
	p.market.inner, p.market.tr = ctx.Market, p.tr
	ctx.Market = &p.market
	start := time.Now()
	req, err := p.inner.Decide(ctx)
	p.tr.decide.add(time.Since(start))
	return req, err
}

// tracedMarket times the three price quotes a policy can ask for.
type tracedMarket struct {
	inner policy.MarketView
	tr    *tracer
}

func (m *tracedMarket) Now() time.Time { return m.inner.Now() }

func (m *tracedMarket) CurrentPrice(typeName string) (float64, error) {
	start := time.Now()
	v, err := m.inner.CurrentPrice(typeName)
	m.tr.quote.add(time.Since(start))
	return v, err
}

func (m *tracedMarket) AvgPriceLastHour(typeName string) (float64, error) {
	start := time.Now()
	v, err := m.inner.AvgPriceLastHour(typeName)
	m.tr.quote.add(time.Since(start))
	return v, err
}

func (m *tracedMarket) OnDemandPrice(typeName string) (float64, error) {
	start := time.Now()
	v, err := m.inner.OnDemandPrice(typeName)
	m.tr.quote.add(time.Since(start))
	return v, err
}

// tracedTuner times Next and Finish, wraps the trend predictors the inner
// tuner obtains through State.Trend, and records the campaign span: the
// engine builds a fresh tuner per campaign and calls Finish exactly once.
type tracedTuner struct {
	inner search.Tuner
	tr    *tracer
	start time.Time
	state tracedState
}

func (t *tracedTuner) Name() string { return t.inner.Name() }

func (t *tracedTuner) Next(s search.State) (search.Round, bool) {
	t.state.State = s
	start := time.Now()
	r, ok := t.inner.Next(&t.state)
	t.tr.tuner.add(time.Since(start))
	return r, ok
}

func (t *tracedTuner) Finish(s search.State) search.Outcome {
	t.state.State = s
	start := time.Now()
	out := t.inner.Finish(&t.state)
	end := time.Now()
	t.tr.tuner.add(end.Sub(start))
	t.tr.campaign.add(end.Sub(t.start))
	return out
}

// tracedState passes every State call through, except that Trend returns a
// timing wrapper around the engine's per-trial predictor (the incremental
// Tracker in production), so the tracker path itself is kept.
type tracedState struct {
	search.State
	tr *tracer
}

func (s *tracedState) Trend(id string) earlycurve.TrendPredictor {
	return tracedTrend{inner: s.State.Trend(id), tr: s.tr}
}

type tracedTrend struct {
	inner earlycurve.TrendPredictor
	tr    *tracer
}

func (p tracedTrend) PredictFinal(points []earlycurve.MetricPoint, finalStep int) (float64, error) {
	start := time.Now()
	v, err := p.inner.PredictFinal(points, finalStep)
	p.tr.fit.add(time.Since(start))
	return v, err
}

// tracedPredictor times revocation-probability inference.
type tracedPredictor struct {
	inner revpred.Predictor
	tr    *tracer
}

func (p tracedPredictor) Predict(g *market.Grid, i int, maxPrice float64) float64 {
	start := time.Now()
	v := p.inner.Predict(g, i, maxPrice)
	p.tr.predict.add(time.Since(start))
	return v
}

// wrapPredictors returns timing wrappers around every predictor, for
// campaign.Environment.WithPredictors.
func wrapPredictors(preds map[string]revpred.Predictor, tr *tracer) map[string]revpred.Predictor {
	out := make(map[string]revpred.Predictor, len(preds))
	for name, p := range preds {
		out[name] = tracedPredictor{inner: p, tr: tr}
	}
	return out
}
