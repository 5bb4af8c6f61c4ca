// Package experiments reproduces every figure of the paper's evaluation
// (§IV): each FigN function regenerates the data behind Figure N and returns
// it in a structured form. cmd/benchfigs renders the results as CSV and
// ASCII charts; the repository-root benchmarks report their headline
// metrics.
package experiments

import (
	"errors"
	"fmt"
	"sync"

	"spottune/internal/campaign"
	"spottune/internal/revpred"
	"spottune/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// Seed drives everything; same seed, same results.
	Seed uint64
	// Scale multiplies workload datasets/horizons (default 1).
	Scale float64
	// Quick trades fidelity for speed: synthetic curves instead of real
	// training, tiny predictor capacity, shorter traces. Used by unit
	// tests and -quick benchfigs runs.
	Quick bool
	// Workloads restricts the Table II suite (default: all six).
	Workloads []string
	// Days/TrainDays control trace length and the predictor split.
	Days, TrainDays int
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Days <= 0 {
		if o.Quick {
			o.Days = 6
		} else {
			o.Days = 14
		}
	}
	if o.TrainDays <= 0 {
		if o.Quick {
			o.TrainDays = 2
		} else {
			o.TrainDays = 8
		}
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"LoR", "SVM", "GBTR", "LiR", "AlexNet", "ResNet"}
	}
	return o
}

// revPredConfig returns predictor training capacity per fidelity level.
func (o Options) revPredConfig() revpred.Config {
	if o.Quick {
		return revpred.Config{Hidden: 6, Depth: 1, Epochs: 1, Stride: 16, BatchSize: 16, Seed: o.Seed}
	}
	return revpred.Config{Hidden: 12, Depth: 2, Epochs: 2, Stride: 4, Seed: o.Seed}
}

// Context lazily builds and caches the expensive shared state: the
// environment (markets + trained predictors) and per-workload recorded
// curves.
type Context struct {
	Opts Options

	mu      sync.Mutex
	envs    map[campaign.PredictorKind]*campaign.Environment
	benches map[string]*workload.Benchmark
	curves  map[string]workload.Curves
}

// NewContext builds an empty context.
func NewContext(opts Options) *Context {
	return &Context{
		Opts:    opts.withDefaults(),
		envs:    make(map[campaign.PredictorKind]*campaign.Environment),
		benches: make(map[string]*workload.Benchmark),
		curves:  make(map[string]workload.Curves),
	}
}

// Env returns (building on first use) an environment with the given
// predictor kind. Quick mode downgrades trained predictors to tiny configs.
func (c *Context) Env(kind campaign.PredictorKind) (*campaign.Environment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if env, ok := c.envs[kind]; ok {
		return env, nil
	}
	env, err := campaign.NewEnvironment(campaign.EnvOptions{
		Seed:      c.Opts.Seed,
		Days:      c.Opts.Days,
		TrainDays: c.Opts.TrainDays,
		Predictor: kind,
		RevPred:   c.Opts.revPredConfig(),
	})
	if err != nil {
		return nil, err
	}
	c.envs[kind] = env
	return env, nil
}

// defaultKind is the provisioning predictor used by campaign figures:
// RevPred in full runs, the cheap constant in Quick mode.
func (c *Context) defaultKind() campaign.PredictorKind {
	if c.Opts.Quick {
		return campaign.PredictorConstant
	}
	return campaign.PredictorRevPred
}

// study returns the shared world of the comparison studies (CrossPolicy,
// CrossTuner): the default-kind environment plus the benchmark and curves
// of the first configured workload.
func (c *Context) study() (*campaign.Environment, *workload.Benchmark, workload.Curves, error) {
	if len(c.Opts.Workloads) == 0 {
		return nil, nil, nil, errors.New("experiments: no study workload configured")
	}
	name := c.Opts.Workloads[0]
	env, err := c.Env(c.defaultKind())
	if err != nil {
		return nil, nil, nil, err
	}
	bench, err := c.Bench(name)
	if err != nil {
		return nil, nil, nil, err
	}
	curves, err := c.Curves(name)
	if err != nil {
		return nil, nil, nil, err
	}
	return env, bench, curves, nil
}

// Bench returns the cached benchmark.
func (c *Context) Bench(name string) (*workload.Benchmark, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.benches[name]; ok {
		return b, nil
	}
	b, err := workload.SuiteByName(name, workload.Config{Seed: c.Opts.Seed, Scale: c.Opts.Scale})
	if err != nil {
		return nil, err
	}
	c.benches[name] = b
	return b, nil
}

// Curves returns the cached metric curves for a workload: recorded from the
// real trainers normally, synthetic in Quick mode.
func (c *Context) Curves(name string) (workload.Curves, error) {
	b, err := c.Bench(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cv, ok := c.curves[name]; ok {
		return cv, nil
	}
	var cv workload.Curves
	if c.Opts.Quick {
		cv = b.SyntheticCurves(c.Opts.Seed)
	} else {
		cv, err = b.RecordCurves()
		if err != nil {
			return nil, fmt.Errorf("experiments: recording %s curves: %w", name, err)
		}
	}
	c.curves[name] = cv
	return cv, nil
}
