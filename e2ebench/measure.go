package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile interpolates linearly between order statistics of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msDuration(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// procSnap is the process's resource use at one instant.
type procSnap struct {
	cpu        time.Duration // user + system
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64 // seconds of CPU spent in the GC
	allCPU     float64 // seconds of CPU available to the Go runtime
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapProc() procSnap {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	metrics.Read(cpuMetrics)
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: m.TotalAlloc,
		numGC:      m.NumGC,
		gcCPU:      cpuMetrics[0].Value.Float64(),
		allCPU:     cpuMetrics[1].Value.Float64(),
	}
}

// liveHeapMB forces a collection and returns the heap still in use. The
// second collection drops what sync.Pool caches (the backend's scratch
// buffers) kept through the first, so the figure does not depend on
// where the last automatic cycle fell.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// Host sentinel: a fixed compute loop and a 64 MiB streaming loop, owned
// by the benchmark and timed around every run, so a run taken in a slow
// host phase shows in its record. They are never used to rescale.

var calibSink uint64

func calibCPU() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(t0)
}

func calibMem(buf []uint64) time.Duration {
	t0 := time.Now()
	for pass := 0; pass < 2; pass++ {
		for i := range buf {
			buf[i] += uint64(i)
		}
	}
	var sum uint64
	for _, v := range buf {
		sum += v
	}
	calibSink += sum
	return time.Since(t0)
}

// hostCalib is one sentinel reading: the median of three of each loop.
type hostCalib struct {
	CPUMs float64 `json:"cpu_ms"`
	MemMs float64 `json:"mem_ms"`
}

func calibrate() hostCalib {
	// The untimed first pass faults the buffer's pages in, so the timed
	// passes measure streaming bandwidth alone.
	buf := make([]uint64, 64<<20/8)
	calibMem(buf)
	var c, m []float64
	for i := 0; i < 3; i++ {
		c = append(c, ms(calibCPU()))
		m = append(m, ms(calibMem(buf)))
	}
	runtime.GC()
	return hostCalib{CPUMs: median(c), MemMs: median(m)}
}
