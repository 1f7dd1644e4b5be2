package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

const mib = 1 << 20

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

// tail returns the highest whole percentile that leaves at least ten
// samples above it, and its nearest-rank value. With 20 samples or fewer no
// percentile at or above the median qualifies, and the median is returned.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	pct = math.Floor(100 * float64(n-10) / float64(n))
	if n <= 20 || pct < 50 {
		return 50, median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(pct / 100 * float64(n)))
	return pct, s[rank-1]
}

// heapSampler tracks the high-water mark of the heap's object bytes (the
// runtime/metrics equivalent of MemStats.HeapAlloc, read without stopping
// the world) from a goroutine polling every millisecond.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(heapObjects())
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > h.peak.Load() {
					h.peak.Store(v)
				}
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it to exit and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	if v := heapObjects(); v > h.peak.Load() {
		return v
	}
	return h.peak.Load()
}

// procSnapshot is the process counters a pass is measured between.
type procSnapshot struct {
	cpu     time.Duration // user + system, of this process and reaped children
	numGC   uint32
	pauseNs uint64
	alloc   uint64
	mallocs uint64
}

func readProc() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{
		cpu:     rusageCPU(syscall.RUSAGE_SELF) + rusageCPU(syscall.RUSAGE_CHILDREN),
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procDelta is the per-pass change of the process counters.
type procDelta struct {
	cpuS, gcCycles, gcPauseMs, allocMB, mallocs float64
}

func (a procSnapshot) to(b procSnapshot) procDelta {
	return procDelta{
		cpuS:      (b.cpu - a.cpu).Seconds(),
		gcCycles:  float64(b.numGC - a.numGC),
		gcPauseMs: float64(b.pauseNs-a.pauseNs) / 1e6,
		allocMB:   float64(b.alloc-a.alloc) / mib,
		mallocs:   float64(b.mallocs - a.mallocs),
	}
}
