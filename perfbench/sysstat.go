package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// usage is a process-wide resource snapshot. Deltas of two snapshots taken
// around a timed phase give its CPU, allocation, GC and scheduler cost.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	mallocs  uint64
	gcCPU    float64 // runtime estimate, seconds
	gcCycles uint64
	sched    *metrics.Float64Histogram // goroutine scheduling latencies
}

func takeUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(samples)
	return usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		gcCPU:    samples[0].Value.Float64(),
		gcCycles: samples[1].Value.Uint64(),
		sched:    samples[2].Value.Float64Histogram(),
	}
}

// cost accumulates the deltas of one or more timed phases.
type cost struct {
	wall         time.Duration
	cpu          time.Duration
	mallocs      uint64
	gcCPU        float64
	gcCycles     uint64
	sched        []uint64
	schedBuckets []float64
}

func (c *cost) add(from, to usage) {
	c.wall += to.wall.Sub(from.wall)
	c.cpu += to.cpu - from.cpu
	c.mallocs += to.mallocs - from.mallocs
	c.gcCPU += to.gcCPU - from.gcCPU
	c.gcCycles += to.gcCycles - from.gcCycles
	if c.sched == nil {
		c.sched = make([]uint64, len(to.sched.Counts))
		c.schedBuckets = to.sched.Buckets
	}
	for i := range c.sched {
		c.sched[i] += to.sched.Counts[i] - from.sched.Counts[i]
	}
}

// schedP99 returns the 99th percentile goroutine scheduling latency in µs
// (upper bucket bound, as the runtime reports buckets, not samples).
func (c *cost) schedP99() float64 {
	var n uint64
	for _, v := range c.sched {
		n += v
	}
	if n == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.99 * float64(n)))
	var acc uint64
	for i, v := range c.sched {
		acc += v
		if acc >= target && i+1 < len(c.schedBuckets) {
			hi := c.schedBuckets[i+1]
			if math.IsInf(hi, 1) {
				hi = c.schedBuckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// liveHeapMB collects garbage and returns the live heap in MiB. Two cycles
// also empty the sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
