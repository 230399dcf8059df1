package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"charles"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 50}, {19, 50}, {20, 50}, {21, 52}, {50, 80}, {85, 88}, {99, 89}, {100, 90}, {5000, 90},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		// Below p90 the rule leaves at least ten samples beyond.
		if tc.n >= 20 && tc.n < 100 {
			if beyond := float64(tc.n) * (1 - float64(tailPercentile(tc.n))/100); beyond < 10-1e-9 {
				t.Errorf("n=%d: only %.1f samples beyond p%d", tc.n, beyond, tailPercentile(tc.n))
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	loop := openLoop{start: t0, interval: 500 * time.Millisecond}
	if got := loop.due(3); !got.Equal(t0.Add(1500 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got)
	}
	// On time: latency is the service time, no lateness.
	lat, late := loop.sample(2, t0.Add(time.Second), t0.Add(time.Second+20*time.Millisecond))
	if lat != 20*time.Millisecond || late != 0 {
		t.Errorf("on time: latency %v late %v", lat, late)
	}
	// A stall held request 2 back 300 ms: its latency counts the
	// wait, and the generator reports itself late by the same.
	lat, late = loop.sample(2, t0.Add(1300*time.Millisecond), t0.Add(1320*time.Millisecond))
	if lat != 320*time.Millisecond || late != 300*time.Millisecond {
		t.Errorf("stalled: latency %v late %v", lat, late)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "op_p50_ms", "engine.zone_prune_ratio", "go.alloc_mb_per_op", "a-b.c_9"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "latency{p50}", "é", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestReportedNamesAreValid runs the names every workload reports
// through the grammar, via the emitted report.
func TestReportedNamesAreValid(t *testing.T) {
	r := newReport("x")
	r.attempted = 1
	r.endToEnd("op_p50_ms", 1.5, "ms")
	r.endToEnd("bad name", 1, "ms")
	if err := r.emit(discard{}, false); err == nil {
		t.Fatal("a name outside the grammar was emitted")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// testTable is a small table from the seed's table stream.
func testTable(seed int64) *charles.Table { return charles.GenerateVOC(20000, tableSeed(seed)) }

func TestSeedDeterminism(t *testing.T) {
	walks := func(seed int64) []walk {
		w := newWalker(seed, 0, 6)
		var out []walk
		for i := 0; i < 50; i++ {
			out = append(out, w.next())
		}
		return out
	}
	batchJSON := func(seed int64) []map[string]any { return makeBatch(seed, 3).json }
	inputs := map[string]func(int64) any{
		"cold contexts":      func(s int64) any { return coldContexts(s, testTable(s)) },
		"explore roots":      func(s int64) any { return rootPools(s, testTable(s)) },
		"walks":              func(s int64) any { return walks(s) },
		"dashboard contexts": func(s int64) any { return dashboardContexts(s, testTable(s)) },
		"batches":            func(s int64) any { return batchJSON(s) },
		"table seed":         func(s int64) any { return tableSeed(s) },
	}
	for name, gen := range inputs {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", name)
		}
	}
}

func TestRootPoolsDisjoint(t *testing.T) {
	p := rootPools(3, testTable(3))
	seen := map[string]bool{}
	for _, c := range p[0] {
		seen[c] = true
	}
	for _, c := range p[1] {
		if seen[c] {
			t.Errorf("root %s is in both sessions' pools", c)
		}
	}
	if len(p[0]) == 0 || len(p[0]) != len(p[1]) {
		t.Errorf("pool sizes %d and %d", len(p[0]), len(p[1]))
	}
}

func TestDesignBalance(t *testing.T) {
	count := map[string]int{}
	for _, c := range coldContexts(5, testTable(5)) {
		for _, a := range vocAttrs {
			if contains(c, a+":") {
				count[a]++
			}
		}
	}
	for _, a := range vocAttrs {
		if count[a] != 12 { // 3 + 4 + 5 appearances
			t.Errorf("attribute %s appears %d times, want 12", a, count[a])
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub && (i == 0 || s[i-1] == '(' || s[i-1] == ' ') {
			return true
		}
	}
	return false
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Op: 1, ID: 1, Name: "cold_scan.op", Start: 0, End: 100 * ms},
		{Op: 1, ID: 2, Parent: 1, Name: "colfile.open", Start: 0, End: 10 * ms},
		{Op: 1, ID: 3, Parent: 1, Name: "core.advise", Start: 10 * ms, End: 90 * ms},
		{Op: 1, ID: 4, Parent: 3, Name: "core.compose", Start: 20 * ms, End: 60 * ms},
		{Op: 1, ID: 5, Parent: 3, Name: "core.initial_cuts", Start: 50 * ms, End: 70 * ms},
	}
	got := map[string]time.Duration{}
	for _, lt := range selfTimes(spans) {
		got[lt.Layer] = lt.Self
	}
	// core: advise 80 − union(20..70)=50 → 30, plus 40 + 20 children.
	want := map[string]time.Duration{"cold_scan": 10 * ms, "colfile": 10 * ms, "core": 90 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestWeightedQuantile(t *testing.T) {
	var eq weighted
	for _, v := range []float64{5, 1, 4, 2, 3} {
		eq.add(v, 1)
	}
	if got := eq.quantile(0.5); got != 3 {
		t.Errorf("equal weights: median %v, want 3", got)
	}
	// Context A ran three times around 10 ms, context B once at 30 ms.
	// Unweighted, A's three samples drag the median to 10.5; weighed
	// per context, the midpoint rule puts A's samples at cumulative
	// weights 1/6, 1/2 and 5/6 and B's at 3/2, so the median (weight 1
	// of 2) is 10.5 + (1 − 5/6)/(3/2 − 5/6)·(30 − 10.5) = 15.375.
	var st weighted
	for _, v := range []float64{10, 9.5, 10.5} {
		st.add(v, 1.0/3)
	}
	st.add(30, 1)
	if got := st.quantile(0.5); math.Abs(got-15.375) > 1e-9 {
		t.Errorf("stratified median %v, want 15.375", got)
	}
	if got := st.quantile(0); got != 9.5 {
		t.Errorf("q=0: %v", got)
	}
	if got := st.quantile(1); got != 30 {
		t.Errorf("q=1: %v", got)
	}
}

func TestWindowRate(t *testing.T) {
	var done []time.Duration
	// Ten seconds: a slow first half (first visits) at 2 ops/s, then
	// 10 ops/s with one stalled second at 3, then a dropped partial
	// window.
	for s := 0; s < 10; s++ {
		n := 10
		switch {
		case s < 5:
			n = 2
		case s == 7:
			n = 3
		}
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(s)*time.Second+time.Duration(i)*50*time.Millisecond)
		}
	}
	done = append(done, 10200*time.Millisecond)
	if got := windowRate(done, 10500*time.Millisecond); got != 10 {
		t.Errorf("windowRate = %v, want 10", got)
	}
}
