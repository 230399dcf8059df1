package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// metricName is the grammar every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name may appear in a result line.
func validMetricName(name string) bool { return metricName.MatchString(name) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the closest ranks; NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// tailPercentile is the rule for the highest percentile a run may
// report: p90 when there are at least 100 samples, otherwise the
// highest whole percentile with at least ten samples beyond it, and
// the median when fewer than twenty samples leave no such tail.
func tailPercentile(n int) int {
	switch {
	case n >= 100:
		return 90
	case n < 20:
		return 50
	}
	return int(math.Floor(100 * (1 - 10/float64(n))))
}

// latencies collects per-operation durations of one kind.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }

func (l *latencies) n() int { return len(l.ms) }

func (l *latencies) sorted() []float64 {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	return s
}

// p50 is the median in milliseconds.
func (l *latencies) p50() float64 { return quantile(l.sorted(), 0.5) }

// tail returns the tail percentile chosen by tailPercentile and its
// value in milliseconds.
func (l *latencies) tail() (pct int, ms float64) {
	pct = tailPercentile(l.n())
	return pct, quantile(l.sorted(), float64(pct)/100)
}

// median of arbitrary values (not necessarily sorted).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// weighted is a sample set in which each sample carries a weight;
// cold_scan weighs each op by 1/(ops of its context), so every context
// of the design counts equally however many times a run reached it.
type weighted struct {
	v, w []float64
}

func (s *weighted) add(v, w float64) {
	s.v = append(s.v, v)
	s.w = append(s.w, w)
}

// quantile interpolates linearly between samples placed at the
// midpoints of their cumulative weight; with equal weights it equals
// the unweighted quantile's midpoint rule.
func (s *weighted) quantile(q float64) float64 {
	n := len(s.v)
	if n == 0 {
		return math.NaN()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.v[idx[a]] < s.v[idx[b]] })
	var total float64
	for _, w := range s.w {
		total += w
	}
	target := q * total
	var cum, prevPos, prevV float64
	for k, i := range idx {
		pos := cum + s.w[i]/2
		cum += s.w[i]
		if pos >= target {
			if k == 0 {
				return s.v[i]
			}
			return prevV + (target-prevPos)/(pos-prevPos)*(s.v[i]-prevV)
		}
		prevPos, prevV = pos, s.v[i]
	}
	return prevV
}

// windowRate is the steady-state throughput: the median number of
// completions per one-second window over the second half of the run
// (the last, partial window dropped). The first half holds the
// first visits; a stall in a few windows, such as a garbage
// collection of the served table, does not move the median.
func windowRate(done []time.Duration, elapsed time.Duration) float64 {
	n := int(elapsed / time.Second)
	from := n / 2
	if n-from < 1 {
		return float64(len(done)) / elapsed.Seconds()
	}
	counts := make([]float64, n-from)
	for _, d := range done {
		if i := int(d / time.Second); i >= from && i < n {
			counts[i-from]++
		}
	}
	return median(counts)
}

// ratio divides, reporting 0 for an empty base, with the base kept
// for the report ("0.83 of 1200").
type ratio struct {
	num, base float64
}

func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4g of %.0f", r.value(), r.base)
}

// openLoop schedules an open-loop generator: request k is due at
// start + k·interval whatever happened to request k−1.
type openLoop struct {
	start    time.Time
	interval time.Duration
}

func (o openLoop) due(k int) time.Time { return o.start.Add(time.Duration(k) * o.interval) }

// sample times one open-loop request: latency runs from its due time
// (so a stall is charged to every request it delays), and lateness
// is how long after its due time the generator actually sent it.
func (o openLoop) sample(k int, sent, done time.Time) (latency, late time.Duration) {
	due := o.due(k)
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}
