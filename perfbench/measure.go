package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc; 0 where that is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks reads the machine-wide CPU tick counters from /proc/stat and
// returns the total and the part stolen by the hypervisor; zeros where
// that is unavailable.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

const (
	metricAllocs = "/gc/heap/allocs:bytes"
	metricLive   = "/gc/heap/live:bytes"
)

// readMetric reads one cumulative or point-in-time runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// sample is one reading of the counters a window is measured by.
type sample struct {
	cpu          time.Duration
	allocs       uint64
	ticks, steal uint64
}

func takeSample() sample {
	ticks, steal := cpuTicks()
	return sample{cpu: cpuTime(), allocs: readMetric(metricAllocs), ticks: ticks, steal: steal}
}

// heapPeak samples the live heap (as marked by the last GC) until
// stopped and keeps the maximum.
type heapPeak struct {
	stop, done chan struct{}
	// peak belongs to the sampling goroutine until Stop returns.
	peak uint64
}

func startHeapPeak(every time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{}), peak: readMetric(metricLive)}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapPeak) observe() {
	if v := readMetric(metricLive); v > h.peak {
		h.peak = v
	}
}

// Stop ends sampling, waits for the sampler to exit and returns the peak.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	<-h.done
	h.observe()
	return h.peak
}

// quantile is the q-quantile of durations by linear interpolation between
// closest ranks, in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
	return v / float64(time.Millisecond)
}

// median of float64 values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perDoc divides a total by a document count (0 when there are none).
func perDoc(total float64, docs int) float64 {
	if docs == 0 {
		return 0
	}
	return total / float64(docs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
