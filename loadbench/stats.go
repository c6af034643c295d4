package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Summary is a latency sample reduced to what the benchmark reports.  N is
// always set; a tail percentile is valid only when at least ten samples lie
// beyond it (HasP90, HasP99).
type Summary struct {
	N      int
	P50    float64
	P90    float64
	HasP90 bool
	P99    float64
	HasP99 bool
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// rank returns the nearest-rank index of quantile q in a sorted sample of
// length n.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// quantile is the nearest-rank q-quantile of xs (sorted in place); 0 for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)]
}

// summarize reduces a sample to its median and, for each of the 90th and
// 99th percentiles, the value when at least minBeyond samples lie beyond it.
// xs is sorted in place.
func summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(xs)
	s.P50 = xs[rank(len(xs), 0.5)]
	if i := rank(len(xs), 0.90); len(xs)-1-i >= minBeyond {
		s.P90, s.HasP90 = xs[i], true
	}
	if i := rank(len(xs), 0.99); len(xs)-1-i >= minBeyond {
		s.P99, s.HasP99 = xs[i], true
	}
	return s
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// Calm windows: a phase is cut into equal windows, and windows in which the
// host stole markedly more CPU time (/proc/stat) than in the calmest one do
// not count — at most half of them are dropped.  On a shared virtual machine
// the host sometimes takes a vCPU away for seconds at a time; that moved
// medians by a third and tails by more than double between runs.  Which
// windows count depends only on steal, never on the latencies themselves.
const (
	latencyWindows = 7
	goodputWindows = 6
)

// stealWatch samples the host's cumulative steal time four times a second.
type stealWatch struct {
	mu    sync.Mutex
	at    []time.Time
	steal []float64
	stop  chan struct{}
	done  chan struct{}
}

func watchSteal() *stealWatch {
	sw := &stealWatch{stop: make(chan struct{}), done: make(chan struct{})}
	sw.sample()
	go func() {
		defer close(sw.done)
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-sw.stop:
				sw.sample()
				return
			case <-t.C:
				sw.sample()
			}
		}
	}()
	return sw
}

func (sw *stealWatch) close() {
	close(sw.stop)
	<-sw.done
}

func (sw *stealWatch) sample() {
	v := readSteal()
	sw.mu.Lock()
	sw.at = append(sw.at, time.Now())
	sw.steal = append(sw.steal, v)
	sw.mu.Unlock()
}

// readSteal is the machine's cumulative steal time in clock ticks, or 0
// where /proc/stat does not report it.
func readSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

// at returns the cumulative steal at the last sample taken no later than t.
func (sw *stealWatch) stealAt(t time.Time) float64 {
	i := sort.Search(len(sw.at), func(i int) bool { return sw.at[i].After(t) })
	if i == 0 {
		return sw.steal[0]
	}
	return sw.steal[i-1]
}

// calm marks the windows of [start, start+dur) cut into n that count: every
// window whose steal is within calmSlack of the least, or the (n+1)/2 with
// the least steal if fewer qualify (ties keep the earlier window).
func (sw *stealWatch) calm(start time.Time, dur time.Duration, n int) []bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	steal := make([]float64, n)
	idx := make([]int, n)
	for i := range steal {
		a := start.Add(dur * time.Duration(i) / time.Duration(n))
		b := start.Add(dur * time.Duration(i+1) / time.Duration(n))
		steal[i] = sw.stealAt(b) - sw.stealAt(a)
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	// calmSlack is 2% of the window's CPU time, in clock ticks (100 a second).
	slack := 0.02 * (dur / time.Duration(n)).Seconds() * float64(runtime.NumCPU()) * 100
	calm := make([]bool, n)
	for k, i := range idx {
		if k < (n+1)/2 || steal[i] <= steal[idx[0]]+slack {
			calm[i] = true
		}
	}
	return calm
}

// windowOf is the index of the window of [start, start+dur) cut into n that
// holds t, or -1 outside it.
func windowOf(start, t time.Time, dur time.Duration, n int) int {
	if t.Before(start) {
		return -1
	}
	i := int(t.Sub(start) * time.Duration(n) / dur)
	if i >= n {
		return -1
	}
	return i
}
