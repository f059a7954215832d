package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"
)

// rtSampler samples runtime/metrics over a measured phase: allocated
// bytes, GC cycles and GC CPU as deltas, and the live heap after each
// GC cycle from periodic samples.
type rtSampler struct {
	start  rtSample
	stopCh chan struct{}
	done   sync.WaitGroup
	mu     sync.Mutex
	lives  []uint64 // live heap after each GC cycle, in order
	result rtDelta
}

// heapWindows is how many consecutive windows of GC cycles the peak
// live heap is taken over. The reported peak is the median of the
// windows' peaks: one coincidence of large answers in flight at a
// cycle's end then sets one window's peak, not the run's.
const heapWindows = 5

type rtSample struct {
	allocBytes, gcCycles, liveHeap uint64
	gcCPU, totalCPU                float64
}

// rtDelta is what a phase cost the runtime.
type rtDelta struct {
	AllocBytes  uint64  `json:"alloc_bytes"`
	GCCycles    uint64  `json:"gc_cycles"`
	GCCPUShare  float64 `json:"gc_cpu_share"`
	GCCPUSecs   float64 `json:"gc_cpu_s"`
	TotalCPU    float64 `json:"total_cpu_s"`
	HeapPeakMB  float64 `json:"heap_peak_mb"`
	HeapSamples int     `json:"heap_gc_samples"`
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rtSample {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == rtmetrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == rtmetrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: u(0), gcCycles: u(1), liveHeap: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// startRT begins sampling after a collection, so the phase starts from
// a settled heap; call stop exactly once.
func startRT() *rtSampler {
	runtime.GC()
	r := &rtSampler{start: readRT(), stopCh: make(chan struct{})}
	r.lives = []uint64{r.start.liveHeap}
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		cycle := r.start.gcCycles
		for {
			select {
			case <-r.stopCh:
				return
			case <-tick.C:
				s := readRT()
				if s.gcCycles == cycle {
					continue
				}
				cycle = s.gcCycles
				r.mu.Lock()
				r.lives = append(r.lives, s.liveHeap)
				r.mu.Unlock()
			}
		}
	}()
	return r
}

// stop ends sampling and returns the phase's deltas. A final collection
// makes the live heap at the phase's end part of the peak.
func (r *rtSampler) stop() rtDelta {
	close(r.stopCh)
	r.done.Wait()
	end := readRT()
	runtime.GC()
	end.liveHeap = readRT().liveHeap
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lives = append(r.lives, end.liveHeap)
	d := r.result
	d.AllocBytes = end.allocBytes - r.start.allocBytes
	d.GCCycles = end.gcCycles - r.start.gcCycles
	d.GCCPUSecs = end.gcCPU - r.start.gcCPU
	d.TotalCPU = end.totalCPU - r.start.totalCPU
	d.GCCPUShare = ratio(d.GCCPUSecs, d.TotalCPU)
	d.HeapSamples = len(r.lives)
	d.HeapPeakMB = float64(windowedPeak(r.lives, heapWindows)) / (1 << 20)
	return d
}

// windowedPeak splits xs into n consecutive windows of near-equal length
// and returns the median of the windows' maxima (the maximum when xs has
// fewer than n values).
func windowedPeak(xs []uint64, n int) uint64 {
	if len(xs) < n {
		n = 1
	}
	var peaks []float64
	for w := 0; w < n; w++ {
		var p uint64
		for _, x := range xs[w*len(xs)/n : (w+1)*len(xs)/n] {
			p = max(p, x)
		}
		peaks = append(peaks, float64(p))
	}
	return uint64(median(peaks))
}
