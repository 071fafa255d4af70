package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN when xs is empty. xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// threadCPUSeconds runs f on one locked OS thread and returns the CPU
// seconds that thread spent in it. Unlike wall time it leaves out time the
// hypervisor stole and time other goroutines ran.
func threadCPUSeconds(f func() error) (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := threadCPU()
	if err != nil {
		return 0, err
	}
	ferr := f()
	t1, err := threadCPU()
	if err != nil {
		return 0, err
	}
	return t1 - t0, ferr
}

// threadCPU reads the calling thread's CPU clock. getrusage(RUSAGE_THREAD)
// counts in scheduler ticks (4 ms here), too coarse for a set-up of a few
// milliseconds; the thread CPU clock counts in nanoseconds.
func threadCPU() (float64, error) {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("reading the thread CPU clock: %w", e)
	}
	return float64(ts.Nano()) / 1e9, nil
}

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink float64

// nsPerOp times op in blocks of n calls, repeated blocks times, and
// returns the median nanoseconds per call. Blocking amortises the clock
// reads over calls far shorter than a clock read.
func nsPerOp(blocks, n int, op func()) float64 {
	per := make([]float64, blocks)
	for b := range per {
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[b] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(per)
}
