package campaign

import (
	"fmt"
	"iter"
	"math/rand/v2"
	"runtime"
	"sync"

	"spottune/internal/core"
)

// PanicError is a job panic recovered by Fan. It carries only the panic
// value; the caller labels it with the job it belongs to.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("panicked: %v", e.Value) }

// Fan runs jobs on a pool of workers and hands each job's outcome to emit in
// job order, on the calling goroutine. It is the one worker pool behind
// Sweep, the streaming scenario matrix and the multi-tenant service.
//
//   - workers (default GOMAXPROCS) bounds concurrency. Each worker calls
//     newState once and passes that state to every job it runs, so per-worker
//     caches need no locking. Workers start as jobs arrive, never more than
//     there are jobs.
//   - window (at least workers) bounds how far dispatch may run ahead of
//     emission: at most window jobs are in flight or parked for reordering,
//     so memory stays flat however many jobs the sequence yields.
//   - A panic in run becomes a *PanicError passed to emit as the job's error.
//   - The first error emit returns stops dispatch: jobs already in flight
//     finish and are dropped, and Fan returns that error.
func Fan[J, S, R any](jobs iter.Seq[J], workers, window int, newState func() S,
	run func(S, J) (R, error), emit func(J, R, error) error) error {

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window = max(window, workers)
	type slot struct { // one job on its way out to a worker and back
		i   int
		j   J
		r   R
		err error
	}
	in := make(chan slot)
	// Every dispatched job not yet emitted fits in the buffer, so a worker
	// never blocks handing back its outcome.
	out := make(chan slot, window)
	var wg sync.WaitGroup
	defer func() {
		close(in)
		wg.Wait()
	}()
	worker := func() {
		defer wg.Done()
		st := newState()
		for o := range in {
			func() {
				defer func() {
					if p := recover(); p != nil {
						o.err = &PanicError{Value: p}
					}
				}()
				o.r, o.err = run(st, o.j)
			}()
			out <- o
		}
	}

	parked := make(map[int]slot, window)
	sent, next := 0, 0
	var err error
	// collect parks one outcome and emits every outcome now due in order.
	collect := func(o slot) {
		parked[o.i] = o
		for err == nil {
			o, ok := parked[next]
			if !ok {
				return
			}
			delete(parked, next)
			next++
			err = emit(o.j, o.r, o.err)
		}
	}
	for j := range jobs {
		if sent < workers {
			wg.Add(1)
			go worker()
		}
		for queued := false; !queued && err == nil; {
			send := in
			if sent-next >= window {
				send = nil // window full: only collect
			}
			select {
			case send <- slot{i: sent, j: j}:
				sent++
				queued = true
			case o := <-out:
				collect(o)
			}
		}
		if err != nil {
			break
		}
	}
	for err == nil && next < sent {
		collect(<-out)
	}
	return err
}

// Task is one independent campaign run inside a Sweep: a label for the
// result row plus the closure that executes it. The rng passed to Run is the
// task's private stream — derived from (sweep seed, task index), so results
// do not depend on which worker picks the task up or in what order.
type Task struct {
	Key string
	Run func(rng *rand.Rand) (*core.Report, error)
}

// SweepResult is one task's outcome, at the same index as its Task.
type SweepResult struct {
	Key    string
	Report *core.Report
	Err    error
}

// SweepOptions tunes Sweep execution.
type SweepOptions struct {
	// Workers caps concurrent campaigns (default GOMAXPROCS).
	Workers int
	// Seed is the base of every task's private rand stream.
	Seed uint64
}

// Sweep runs the tasks on a Fan worker pool and returns their results in
// task order, regardless of scheduling. Campaigns are independent
// simulations — each builds its own cluster, clock, and object store — so
// they parallelize without shared mutable state; environments (markets,
// grids, trained predictors) are read-only at run time and safe to share
// across workers.
//
// Determinism: the i-th task always receives rand.NewPCG(seed, i), and the
// i-th result slot always holds the i-th task's outcome. A sweep over a
// fixed environment and seed is therefore reproducible run to run and
// identical to executing the tasks sequentially. A failing or panicking
// task (a *PanicError) fills only its own slot; every other task still runs.
func Sweep(tasks []Task, opt SweepOptions) []SweepResult {
	results := make([]SweepResult, len(tasks))
	// Every result is retained anyway, so the window spans the whole sweep.
	_ = Fan(func(yield func(int) bool) {
		for i := range tasks {
			if !yield(i) {
				return
			}
		}
	}, opt.Workers, len(tasks), func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (*core.Report, error) {
			return tasks[i].Run(rand.New(rand.NewPCG(opt.Seed, uint64(i))))
		},
		func(i int, rep *core.Report, err error) error {
			results[i] = SweepResult{Key: tasks[i].Key, Report: rep, Err: err}
			return nil
		})
	return results
}

// FirstErr returns the first failed result (in task order), or nil.
func FirstErr(results []SweepResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("campaign: sweep %q: %w", r.Key, r.Err)
		}
	}
	return nil
}
