package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapSampler polls the live heap (the heap the runtime marked live in its
// last cycle) and keeps the highest value seen.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (h *heapSampler) sample() uint64 {
	v := liveHeap()
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
	return v
}

// take returns the peak in MB since the previous take (or the start) and
// starts a new peak from the current value.
func (h *heapSampler) take() float64 {
	v := h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	peak := h.peak
	h.peak = v
	return float64(peak) / (1 << 20)
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	h.sample()
	return float64(h.peak) / (1 << 20)
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	totalAllocMB float64
	mallocs      float64
	gcCycles     float64
	gcPauseS     float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		totalAllocMB: float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		mallocs:      float64(b.Mallocs - a.Mallocs),
		gcCycles:     float64(b.NumGC - a.NumGC),
		gcPauseS:     float64(b.PauseTotalNs-a.PauseTotalNs) / 1e9,
	}
}
