package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

const (
	liveHeapMetric = "/gc/heap/live:bytes"   // live heap as of the last GC
	allocMetric    = "/gc/heap/allocs:bytes" // cumulative bytes allocated
	pauseMetric    = "/sched/pauses/total/gc:seconds"
)

// liveHeapMB returns the live heap after two forced collections (the second
// one also frees what finalizers released in the first).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return readUint(liveHeapMetric) / (1 << 20)
}

// allocatedMB returns the MiB allocated since the process started.
func allocatedMB() float64 { return readUint(allocMetric) / (1 << 20) }

func readUint(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// gcPauseSeconds sums the stop-the-world GC pause histogram, taking each
// bucket at its lower edge.
func gcPauseSeconds() float64 {
	s := []metrics.Sample{{Name: pauseMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s[0].Value.Float64Histogram()
	t := 0.0
	for i, c := range h.Counts {
		if lo := h.Buckets[i]; c > 0 && lo > 0 {
			t += float64(c) * lo
		}
	}
	return t
}

// heapPeak samples the live heap every few milliseconds until stopped and
// keeps the maximum. The live heap only changes at the end of a GC cycle,
// so the sampling period only has to be shorter than a cycle.
type heapPeak struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	peak  float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), peak: readUint(liveHeapMetric)}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
				h.observe(readUint(liveHeapMetric))
			}
		}
	}()
	return h
}

func (h *heapPeak) observe(v float64) {
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// stop ends sampling and returns the peak live heap in MiB. The caller
// should still hold everything the measured work produced, so the final
// forced collection counts it.
func (h *heapPeak) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	h.observe(liveHeapMB() * (1 << 20))
	return h.peak / (1 << 20)
}

// runtimeWindow captures allocation and GC pause totals over a window.
type runtimeWindow struct{ alloc0, pause0 float64 }

func startRuntimeWindow() runtimeWindow {
	return runtimeWindow{alloc0: allocatedMB(), pause0: gcPauseSeconds()}
}

// end returns the MiB allocated and the GC pause milliseconds since start.
func (w runtimeWindow) end() (allocMB, pauseMS float64) {
	return allocatedMB() - w.alloc0, (gcPauseSeconds() - w.pause0) * 1e3
}
