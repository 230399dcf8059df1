package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// chunkInt64 splits vals into random-width chunks (including empty
// ones) whose concatenation is vals.
func chunkInt64(vals []int64, rng *rand.Rand) [][]int64 {
	var chunks [][]int64
	for i := 0; i < len(vals); {
		w := rng.Intn(len(vals)-i) + 1
		chunks = append(chunks, append([]int64(nil), vals[i:i+w]...))
		i += w
		if rng.Intn(3) == 0 {
			chunks = append(chunks, []int64{})
		}
	}
	if len(chunks) == 0 {
		chunks = [][]int64{{}}
	}
	return chunks
}

// int64Cases covers the value shapes the rank search bisects badly
// if the midpoint math is wrong: negatives, extremes, and heavy
// duplicates.
func int64Cases(rng *rand.Rand) [][]int64 {
	cases := [][]int64{
		{0},
		{-1, 1},
		{math.MaxInt64, math.MinInt64, 0, -1, 1},
		{5, 5, 5, 5, 5},
	}
	uniq := make([]int64, 200)
	for i := range uniq {
		uniq[i] = rng.Int63n(2000) - 1000
	}
	cases = append(cases, uniq)
	heavy := make([]int64, 300)
	for i := range heavy {
		heavy[i] = int64(rng.Intn(3))
	}
	cases = append(cases, heavy)
	return cases
}

func TestKthSortedInt64ChunksMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, vals := range int64Cases(rng) {
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		chunks := chunkInt64(vals, rng)
		SortInt64Chunks(chunks, 2)
		for k := 0; k < len(vals); k++ {
			if got := KthSortedInt64Chunks(chunks, k); got != sorted[k] {
				t.Fatalf("kth(%d) = %d, want %d (vals %v)", k, got, sorted[k], vals)
			}
		}
	}
}

// TestMedianChunksMatchesFlat pins the two rank selections to each
// other at the median rank: sorted runs searched by value agree with
// quickselect over the flattened values.
func TestMedianChunksMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, vals := range int64Cases(rng) {
		want := MedianInt64(append([]int64(nil), vals...))
		chunks := chunkInt64(vals, rng)
		SortInt64Chunks(chunks, 3)
		if got := KthSortedInt64Chunks(chunks, len(vals)/2); got != want {
			t.Fatalf("median of sorted runs = %d, want %d", got, want)
		}
	}
}

// TestEquiDepthPointsChunksMatchesFlat: equi-depth points read off
// sorted runs equal the quickselect points of the flattened values,
// for every sharding.
func TestEquiDepthPointsChunksMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, vals := range int64Cases(rng) {
		for _, arity := range []int{2, 3, 4, 8, 13} {
			want := EquiDepthPoints(append([]int64(nil), vals...), arity)
			chunks := chunkInt64(vals, rng)
			SortInt64Chunks(chunks, 2)
			got := EquiDepthPointsSorted(chunks, arity)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("EquiDepthPointsSorted(arity=%d) = %v, want %v (vals %v)", arity, got, want, vals)
			}
		}
	}
}
func TestKthChunksPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range rank")
		}
	}()
	KthSortedInt64Chunks([][]int64{{1, 2}}, 2)
}
