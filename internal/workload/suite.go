package workload

import (
	"fmt"
	"math"

	"spottune/internal/mltrain"
)

// suite lists the six Table II benchmarks in table order.
var suite = []struct {
	name  string
	build func(Config) *Benchmark
}{
	{"LoR", LoR}, {"SVM", SVM}, {"GBTR", GBTR}, {"LiR", LiR}, {"AlexNet", AlexNet}, {"ResNet", ResNet},
}

// Suite builds all six Table II benchmarks.
func Suite(cfg Config) []*Benchmark {
	out := make([]*Benchmark, len(suite))
	for i, s := range suite {
		out[i] = s.build(cfg)
	}
	return out
}

// Names returns the Table II benchmark names in table order, without
// building any benchmark.
func Names() []string {
	out := make([]string, len(suite))
	for i, s := range suite {
		out[i] = s.name
	}
	return out
}

// SuiteByName builds one benchmark by its Table II name. Each benchmark
// derives its data from cfg alone, so it is the same benchmark Suite builds.
func SuiteByName(name string, cfg Config) (*Benchmark, error) {
	for _, s := range suite {
		if s.name == name {
			return s.build(cfg), nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// epochSchedule combines the paper's exponential decay (dr per decay-steps)
// with an epoch step drop at de (AlexNet rows of Table II list both).
type epochSchedule struct {
	base          float64
	dr            float64
	ds            int
	factor        float64
	decaySteps    int // step index of the de drop
	stepsPerEpoch int
}

func (s epochSchedule) LR(step int) float64 {
	lr := s.base
	if s.ds > 0 && s.dr > 0 {
		lr *= math.Pow(s.dr, float64(step)/float64(s.ds))
	}
	if s.decaySteps > 0 && step >= s.decaySteps {
		lr *= s.factor
	}
	return lr
}

// LoR is logistic regression on an Epsilon-like binary set (Table II row 1).
func LoR(cfg Config) *Benchmark {
	cfg = cfg.withDefaults()
	maxSteps := cfg.scaled(400)
	every := maxInt(1, maxSteps/40)
	maxSteps = (maxSteps / every) * every
	data := mltrain.SyntheticBinary(cfg.scaled(500), 30, 3, 0.05, cfg.Seed+1)
	train, val := data.Split(0.8)
	b := &Benchmark{
		Name:            "LoR",
		Metric:          "cross-entropy",
		MaxTrialSteps:   maxSteps,
		ValidateEvery:   every,
		CheckpointMB:    5,
		BaseStepSeconds: 20,
		cfg:             cfg,
		HPs: grid([]axis{
			{name: "bs", nums: []float64{128, 64}},
			{name: "lr", nums: []float64{1e-2, 1e-3}},
			{name: "dr", nums: []float64{1.0, 0.95}},
			{name: "ds", nums: []float64{1000, 2000}},
		}),
	}
	b.newTrainer = func(hp HP) (*mltrain.Trainer, error) {
		m := mltrain.NewLogisticRegression(30, 1e-4)
		// ds scaled so its 1:2 ratio is preserved at our horizon.
		dsEff := int(hp.Num["ds"] * float64(maxSteps) / 2000)
		return mltrain.NewTrainer(m, train, val, mltrain.TrainerConfig{
			Batch:         int(hp.Num["bs"]),
			Schedule:      mltrain.ExpDecay{Base: hp.Num["lr"] * 8, DecayRate: hp.Num["dr"], DecaySteps: dsEff},
			ValidateEvery: every,
			Seed:          cfg.Seed + 11,
		})
	}
	b.timeFactor = batchFactor
	return b
}

// SVM is a hinge-loss SVM with linear or RFF-approximated RBF kernels
// (Table II row 2).
func SVM(cfg Config) *Benchmark {
	cfg = cfg.withDefaults()
	maxSteps := cfg.scaled(400)
	every := maxInt(1, maxSteps/40)
	maxSteps = (maxSteps / every) * every
	raw := mltrain.SyntheticBinary(cfg.scaled(500), 20, 2.5, 0.08, cfg.Seed+2)
	rff := mltrain.NewRFFTransform(20, 100, 0.3, cfg.Seed+3)
	rbfData := rff.Apply(raw)
	trainLin, valLin := raw.Split(0.8)
	trainRBF, valRBF := rbfData.Split(0.8)
	b := &Benchmark{
		Name:            "SVM",
		Metric:          "hinge",
		MaxTrialSteps:   maxSteps,
		ValidateEvery:   every,
		CheckpointMB:    5,
		BaseStepSeconds: 18,
		cfg:             cfg,
		HPs: grid([]axis{
			{name: "bs", nums: []float64{128, 64}},
			{name: "lr", nums: []float64{1e-2, 1e-3}},
			{name: "dr", nums: []float64{1.0, 0.95}},
			{name: "kernel", strs: []string{"RBF", "Linear"}},
		}),
	}
	b.newTrainer = func(hp HP) (*mltrain.Trainer, error) {
		train, val, dim := trainLin, valLin, 20
		if hp.Str["kernel"] == "RBF" {
			train, val, dim = trainRBF, valRBF, 100
		}
		m := mltrain.NewSVM(dim, 1e-4)
		return mltrain.NewTrainer(m, train, val, mltrain.TrainerConfig{
			Batch:         int(hp.Num["bs"]),
			Schedule:      mltrain.ExpDecay{Base: hp.Num["lr"] * 30, DecayRate: hp.Num["dr"], DecaySteps: maxSteps / 2},
			ValidateEvery: every,
			Seed:          cfg.Seed + 12,
		})
	}
	b.timeFactor = func(hp HP) float64 {
		f := batchFactor(hp)
		if hp.Str["kernel"] == "RBF" {
			f *= 1.6 // 100 RFF dims vs 20 raw
		}
		return f
	}
	return b
}

// GBTR is gradient-boosted tree regression (Table II row 3). One step = one
// boosting round; nt maps to trees-per-round (see package comment).
func GBTR(cfg Config) *Benchmark {
	cfg = cfg.withDefaults()
	maxSteps := cfg.scaled(60)
	every := maxInt(1, maxSteps/30)
	maxSteps = (maxSteps / every) * every
	data := mltrain.SyntheticRegression(cfg.scaled(400), 8, 0.1, cfg.Seed+4)
	train, val := data.Split(0.8)
	b := &Benchmark{
		Name:            "GBTR",
		Metric:          "MSE",
		MaxTrialSteps:   maxSteps,
		ValidateEvery:   every,
		CheckpointMB:    50,
		BaseStepSeconds: 150,
		cfg:             cfg,
		HPs: grid([]axis{
			{name: "bs", nums: []float64{128, 64}},
			{name: "lr", nums: []float64{1e-1, 1e-2}},
			{name: "nt", nums: []float64{10, 15}},
			{name: "depth", nums: []float64{5, 8}},
		}),
	}
	b.newTrainer = func(hp HP) (*mltrain.Trainer, error) {
		m := mltrain.NewGBTRegressor(int(hp.Num["depth"]), 4)
		return mltrain.NewTrainer(m, train, val, mltrain.TrainerConfig{
			Batch:         int(hp.Num["bs"]),
			Schedule:      mltrain.ConstLR(hp.Num["lr"] * 3),
			ValidateEvery: every,
			Seed:          cfg.Seed + 13,
		})
	}
	b.timeFactor = func(hp HP) float64 {
		f := batchFactor(hp)
		f *= hp.Num["nt"] / 10            // trees per round
		f *= 1 + 0.15*(hp.Num["depth"]-5) // deeper trees
		return f
	}
	return b
}

// LiR is SGD linear regression on a YearPredictionMSD-like set (Table II
// row 4).
func LiR(cfg Config) *Benchmark {
	cfg = cfg.withDefaults()
	maxSteps := cfg.scaled(400)
	every := maxInt(1, maxSteps/40)
	maxSteps = (maxSteps / every) * every
	data := mltrain.SyntheticRegression(cfg.scaled(500), 30, 0.15, cfg.Seed+5)
	train, val := data.Split(0.8)
	b := &Benchmark{
		Name:            "LiR",
		Metric:          "MSE",
		MaxTrialSteps:   maxSteps,
		ValidateEvery:   every,
		CheckpointMB:    5,
		BaseStepSeconds: 20,
		cfg:             cfg,
		HPs: grid([]axis{
			{name: "bs", nums: []float64{128, 64}},
			{name: "lr", nums: []float64{1e-2, 1e-3}},
			{name: "dr", nums: []float64{1.0, 0.95}},
			{name: "ds", nums: []float64{1000, 2000}},
		}),
	}
	b.newTrainer = func(hp HP) (*mltrain.Trainer, error) {
		m := mltrain.NewLinearRegression(30, 0)
		dsEff := int(hp.Num["ds"] * float64(maxSteps) / 2000)
		return mltrain.NewTrainer(m, train, val, mltrain.TrainerConfig{
			Batch:         int(hp.Num["bs"]),
			Schedule:      mltrain.ExpDecay{Base: hp.Num["lr"] * 10, DecayRate: hp.Num["dr"], DecaySteps: dsEff},
			ValidateEvery: every,
			Seed:          cfg.Seed + 14,
		})
	}
	b.timeFactor = batchFactor
	return b
}

// AlexNet is the plain-MLP classifier stand-in (Table II row 5).
func AlexNet(cfg Config) *Benchmark {
	cfg = cfg.withDefaults()
	maxSteps := cfg.scaled(480)
	every := maxInt(1, maxSteps/40)
	maxSteps = (maxSteps / every) * every
	data := mltrain.SyntheticImagesNoisy(cfg.scaled(1400), 48, 8, 0.9, 0.06, cfg.Seed+6)
	train, val := data.Split(0.8)
	b := &Benchmark{
		Name:            "AlexNet",
		Metric:          "cross-entropy",
		MaxTrialSteps:   maxSteps,
		ValidateEvery:   every,
		CheckpointMB:    700,
		BaseStepSeconds: 30,
		cfg:             cfg,
		HPs: grid([]axis{
			{name: "bs", nums: []float64{128, 64}},
			{name: "lr", nums: []float64{1e-1, 1e-2}},
			{name: "dr", nums: []float64{1.0, 0.95}},
			{name: "de", nums: []float64{40, 60}},
		}),
	}
	b.newTrainer = func(hp HP) (*mltrain.Trainer, error) {
		m := mltrain.NewMLPClassifier(48, []int{40, 24}, 8, cfg.Seed+15)
		m.L2 = 2e-3
		spe := maxInt(1, train.Len()/int(hp.Num["bs"]))
		// de scaled: the horizon covers ~2x the first decay point.
		deEff := int(hp.Num["de"]) * maxSteps / (80 * spe) * spe
		return mltrain.NewTrainer(m, train, val, mltrain.TrainerConfig{
			Batch: int(hp.Num["bs"]),
			Schedule: epochSchedule{
				base:          hp.Num["lr"] / 10, // Adam scale for the table's SGD-scale lr
				dr:            hp.Num["dr"],
				ds:            spe * 10,
				factor:        0.1,
				decaySteps:    deEff,
				stepsPerEpoch: spe,
			},
			ValidateEvery: every,
			Seed:          cfg.Seed + 16,
		})
	}
	b.timeFactor = batchFactor
	return b
}

// ResNet is the residual-MLP classifier stand-in (Table II row 6): depth
// maps to residual blocks, version to the post-activation variant, de to the
// step decay that produces two-stage validation curves (Fig. 5b).
func ResNet(cfg Config) *Benchmark {
	cfg = cfg.withDefaults()
	maxSteps := cfg.scaled(600)
	every := maxInt(1, maxSteps/60)
	maxSteps = (maxSteps / every) * every
	data := mltrain.SyntheticImagesNoisy(cfg.scaled(1400), 48, 8, 1.0, 0.06, cfg.Seed+7)
	train, val := data.Split(0.8)
	b := &Benchmark{
		Name:            "ResNet",
		Metric:          "cross-entropy",
		MaxTrialSteps:   maxSteps,
		ValidateEvery:   every,
		CheckpointMB:    300,
		BaseStepSeconds: 36,
		cfg:             cfg,
		HPs: grid([]axis{
			{name: "bs", nums: []float64{32, 64}},
			{name: "version", nums: []float64{1, 2}},
			{name: "depth", nums: []float64{20, 29}},
			{name: "de", nums: []float64{40, 60}},
		}),
	}
	b.newTrainer = func(hp HP) (*mltrain.Trainer, error) {
		blocks := 2
		if hp.Num["depth"] > 20 {
			blocks = 3
		}
		m := mltrain.NewResMLPClassifier(48, 28, blocks, 8, hp.Num["version"] == 1, cfg.Seed+17)
		m.L2 = 2e-3
		spe := maxInt(1, train.Len()/int(hp.Num["bs"]))
		deEpochs := int(hp.Num["de"]) * (maxSteps / spe) / 80
		if deEpochs < 1 {
			deEpochs = 1
		}
		return mltrain.NewTrainer(m, train, val, mltrain.TrainerConfig{
			Batch: int(hp.Num["bs"]),
			Schedule: mltrain.EpochStepDecay{
				Base:          2e-3,
				Factor:        0.05,
				DecayEpochs:   deEpochs,
				StepsPerEpoch: spe,
			},
			ValidateEvery: every,
			Seed:          cfg.Seed + 18,
		})
	}
	b.timeFactor = func(hp HP) float64 {
		f := math.Pow(hp.Num["bs"]/32, 0.7)
		if hp.Num["depth"] > 20 {
			f *= 1.35
		}
		return f
	}
	return b
}

// batchFactor scales per-step time with batch size relative to 64.
func batchFactor(hp HP) float64 {
	bs := hp.Num["bs"]
	if bs <= 0 {
		return 1
	}
	return math.Pow(bs/64, 0.7)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
