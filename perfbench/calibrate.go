package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The host this benchmark runs on is shared: over minutes its speed for the
// same work swings by up to 2x as neighbours come and go (a fixed loop took
// 33 ms on a quiet 2-vCPU Xeon VM and 47-64 ms on the same VM under load).
// Host-time metrics are therefore also reported in reference seconds: each
// timed interval is scaled by the host's speed measured right before and
// after it with a fixed calibration kernel that shares no code with the
// simulator, so no change to the program can move it.

// calibNominal is the kernel's run time at the reference speed: one
// reference second is the host time in which the kernel runs
// 1s/calibNominal times. It is a fixed scale, close to the kernel's time on
// a quiet 2-vCPU Xeon VM, so reference seconds read near host seconds there.
const calibNominal = 3 * time.Millisecond

const (
	calibTableLen = 2 << 20 // bytes: beyond L2, like the simulator's market stores
	calibSteps    = 1 << 18
	calibRounds   = 5
)

// calibState is one worker's private kernel state. The table is mapped
// outside the Go heap, so calibrating moves neither the heap nor the
// allocation metrics.
type calibState struct {
	table []byte
	sink  float64
}

var calibStates []*calibState

// kernel runs the fixed work once: dependent random reads and writes over
// the table, integer hashing, and transcendental float math.
func (c *calibState) kernel() {
	x := uint64(0x9E3779B97F4A7C15)
	acc := 0.0
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ uint64(c.table[x%calibTableLen])*0xBF58476D1CE4E5B9) % calibTableLen
		c.table[j] += byte(i)
		if i%4 == 0 {
			acc += math.Log1p(float64(c.table[j])) * math.Exp(-float64(i&31)/8)
		}
	}
	c.sink += acc
}

// calibrate returns the host's current speed relative to the reference:
// calibNominal over the median time of several rounds in which every
// worker runs the kernel at once (below 1 when the host is slower than the
// reference). The workloads use every CPU, so the calibration does too. It
// first completes a GC cycle, so no background marking left by the previous
// interval slows the kernel, and the next interval starts from a collected
// heap.
func calibrate() float64 {
	runtime.GC()
	for len(calibStates) < workers() {
		table, err := syscall.Mmap(-1, 0, calibTableLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			// Without a mapping the kernel runs on the heap instead.
			table = make([]byte, calibTableLen)
		}
		calibStates = append(calibStates, &calibState{table: table})
	}
	var runs [calibRounds]time.Duration
	for r := range runs {
		var wg sync.WaitGroup
		start := time.Now()
		for _, c := range calibStates[:workers()] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.kernel()
			}()
		}
		wg.Wait()
		runs[r] = time.Since(start)
	}
	sort.Slice(runs[:], func(i, j int) bool { return runs[i] < runs[j] })
	return float64(calibNominal) / float64(runs[calibRounds/2])
}

// refSeconds converts a host interval to reference seconds, given the
// host speed measured before and after it.
func refSeconds(d time.Duration, speedBefore, speedAfter float64) float64 {
	return d.Seconds() * (speedBefore + speedAfter) / 2
}
