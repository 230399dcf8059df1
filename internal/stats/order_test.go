package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuickSelectInt64MatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(50)) // duplicates on purpose
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		k := rng.Intn(n)
		work := append([]int64(nil), vals...)
		if got, want := quickSelect(work, k), sorted[k]; got != want {
			t.Fatalf("trial %d: QuickSelect(k=%d) = %d, want %d", trial, k, got, want)
		}
	}
}

func TestQuickSelectFloat64MatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(40)) / 4
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		k := rng.Intn(n)
		work := append([]float64(nil), vals...)
		if got, want := quickSelect(work, k), sorted[k]; got != want {
			t.Fatalf("trial %d: QuickSelect(k=%d) = %v, want %v", trial, k, got, want)
		}
	}
}

func TestQuickSelectPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range k")
		}
	}()
	quickSelect([]int64{1, 2, 3}, 3)
}

func TestMedianInt64UpperMedian(t *testing.T) {
	// Even length: upper median is element n/2 of the sorted order.
	if got := MedianInt64([]int64{4, 1, 3, 2}); got != 3 {
		t.Fatalf("median of 1..4 = %d, want 3 (upper median)", got)
	}
	if got := MedianInt64([]int64{5}); got != 5 {
		t.Fatalf("median of singleton = %d, want 5", got)
	}
	if got := MedianInt64([]int64{9, 7, 8}); got != 8 {
		t.Fatalf("median of 7..9 = %d, want 8", got)
	}
}

func TestMedianSplitsRoughlyInHalfProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(500)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1 << 30) // effectively distinct
		}
		med := MedianInt64(append([]int64(nil), vals...))
		below := 0
		for _, v := range vals {
			if v < med {
				below++
			}
		}
		// With distinct values the strict-below count is exactly n/2.
		return below == n/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesInt64(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	for i, q := range []float64{0.25, 0.5, 0.75} {
		if got, want := quickSelect(vals, quantileIndex(len(vals), q)), int64(25*(i+1)); got != want {
			t.Fatalf("quantile %v = %d, want %d", q, got, want)
		}
	}
}

func TestEquiDepthPointsUniform(t *testing.T) {
	vals := make([]int64, 90)
	for i := range vals {
		vals[i] = int64(i)
	}
	points := EquiDepthPoints(vals, 3)
	if len(points) != 2 || points[0] != 30 || points[1] != 60 {
		t.Fatalf("tertile points = %v, want [30 60]", points)
	}
}

func TestEquiDepthPointsCollapsesDuplicates(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = 7 // constant column: no split possible
	}
	if points := EquiDepthPoints(vals, 4); len(points) != 0 {
		t.Fatalf("points on constant data = %v, want none", points)
	}
}

func TestEquiDepthPointsDegenerateArity(t *testing.T) {
	if points := EquiDepthPoints([]int64{1, 2, 3}, 1); points != nil {
		t.Fatalf("arity 1 points = %v, want nil", points)
	}
	if points := EquiDepthPoints(nil, 3); points != nil {
		t.Fatalf("empty input points = %v, want nil", points)
	}
}

func TestEquiDepthPointsFloat(t *testing.T) {
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = float64(i)
	}
	points := EquiDepthPointsFloat64(vals, 2)
	if len(points) != 1 || points[0] != 30 {
		t.Fatalf("median point = %v, want [30]", points)
	}
}

// TestEquiDepthPointsMatchesSortOracle pins the quickselect-based
// equi-depth points to the definition read off a sorted copy:
// quantile ranks, duplicates collapsed, the minimum dropped.
func TestEquiDepthPointsMatchesSortOracle(t *testing.T) {
	oracle := func(vals []int64, arity int) []int64 {
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var out []int64
		for i := 1; i < arity; i++ {
			p := sorted[quantileIndex(len(sorted), float64(i)/float64(arity))]
			if p > sorted[0] && (len(out) == 0 || p > out[len(out)-1]) {
				out = append(out, p)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		vals := make([]int64, 1+rng.Intn(300))
		spread := 1 + rng.Intn(20) // few distinct values: heavy duplicates
		for i := range vals {
			vals[i] = int64(rng.Intn(spread)) - 5
		}
		arity := 2 + rng.Intn(7)
		got := EquiDepthPoints(append([]int64(nil), vals...), arity)
		want := oracle(vals, arity)
		if len(got) != len(want) {
			t.Fatalf("trial %d arity %d: points %v, want %v", trial, arity, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d arity %d: points %v, want %v", trial, arity, got, want)
			}
		}
	}
}
