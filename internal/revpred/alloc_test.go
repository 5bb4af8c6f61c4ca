package revpred

import (
	"math"
	"sync"
	"testing"
)

// TestPredictAllocBudget is the tier-1 allocation guard for the
// provisioning hot path: Model.Predict with a warm scratch pool must stay
// within a small fixed budget per call (the pre-cache implementation
// assembled ~1300 allocations per query). The sliding-window cache, pooled
// workspaces, and cache-free inference forwards leave nothing per call.
func TestPredictAllocBudget(t *testing.T) {
	g := spikyGrid(t, 3)
	m, err := Train(g, 0, g.Len(), Config{Hidden: 6, Depth: 2, Epochs: 1, BatchSize: 16, Stride: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	i := HistorySteps + 100
	// Warm the pool so scratch construction is not billed to steady state.
	m.Predict(g, i, g.Prices[i]+0.05)
	n := 0
	avg := testing.AllocsPerRun(50, func() {
		idx := i + n%50 // slide the window forward, as the provisioner does
		n++
		m.Predict(g, idx, g.Prices[idx]+0.05)
	})
	if avg > 0 {
		t.Errorf("Model.Predict allocates %.1f times per query, want 0", avg)
	}
}

// TestPredictBatchZeroAllocs pins the batched inference path at zero
// steady-state allocations: with a warm scratch pool and a caller-owned
// output buffer, a wave of maxPrice queries — including the window slides
// that re-run the history LSTM — must not touch the heap.
func TestPredictBatchZeroAllocs(t *testing.T) {
	g := spikyGrid(t, 3)
	m, err := Train(g, 0, g.Len(), Config{Hidden: 6, Depth: 2, Epochs: 1, BatchSize: 16, Stride: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	i := HistorySteps + 100
	maxPrices := []float64{0.05, 0.08, 0.12, 0.2, 0.5}
	out := make([]float64, 0, len(maxPrices))
	out = m.PredictBatch(g, i, maxPrices, out) // warm pool + arena
	n := 0
	avg := testing.AllocsPerRun(50, func() {
		idx := i + n%50 // slide the window, as a sweep wave does
		n++
		out = m.PredictBatch(g, idx, maxPrices, out[:0])
	})
	if avg > 0 {
		t.Errorf("Model.PredictBatch allocates %.1f times per wave, want 0", avg)
	}
}

// TestPredictBatchBitIdentical pins PredictBatch to the sequential Predict
// path bit for bit: batching may only amortize work, never change results.
func TestPredictBatchBitIdentical(t *testing.T) {
	g := spikyGrid(t, 7)
	m, err := Train(g, 0, g.Len(), Config{Hidden: 6, Depth: 2, Epochs: 1, BatchSize: 16, Stride: 12, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	maxPrices := []float64{0.01, 0.06, 0.1, 0.3, 2.5}
	for _, i := range []int{0, HistorySteps - 1, HistorySteps, HistorySteps + 17, HistorySteps + 200, g.Len() - 1, g.Len()} {
		var out []float64
		out = m.PredictBatch(g, i, maxPrices, out)
		if len(out) != len(maxPrices) {
			t.Fatalf("minute %d: got %d results for %d prices", i, len(out), len(maxPrices))
		}
		for k, mp := range maxPrices {
			want := m.Predict(g, i, mp)
			if math.Float64bits(out[k]) != math.Float64bits(want) {
				t.Errorf("minute %d maxPrice %v: batch %x, sequential %x",
					i, mp, math.Float64bits(out[k]), math.Float64bits(want))
			}
		}
	}
}

// TestPredictConcurrentMatchesSequential shares one model between
// goroutines that each slide their own window forward, as parallel sweep
// workers do, so scratches change hands between callers at every step.
// Every result must equal the single-caller answer bit for bit.
func TestPredictConcurrentMatchesSequential(t *testing.T) {
	g := spikyGrid(t, 3)
	m, err := Train(g, 0, g.Len(), Config{Hidden: 6, Depth: 2, Epochs: 1, BatchSize: 16, Stride: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const workers, steps = 4, 40
	maxPrices := []float64{0.05, 0.2}
	start := func(w int) int { return HistorySteps + 100*w }
	want := make([][]float64, workers)
	for w := range want {
		for k := 0; k < steps; k++ {
			want[w] = m.PredictBatch(g, start(w)+k, maxPrices, want[w])
		}
	}
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < steps; k++ {
				i := start(w) + k
				if k%2 == 0 {
					got[w] = m.PredictBatch(g, i, maxPrices, got[w])
					continue
				}
				for _, mp := range maxPrices {
					got[w] = append(got[w], m.Predict(g, i, mp))
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range want {
		for k := range want[w] {
			if math.Float64bits(got[w][k]) != math.Float64bits(want[w][k]) {
				t.Fatalf("worker %d result %d: %x, want %x", w, k, math.Float64bits(got[w][k]), math.Float64bits(want[w][k]))
			}
		}
	}
}
