// Rank selection over sorted runs: the retained form of the cut-point
// math. The incremental-advise cut cache keeps one sorted run per
// chunk across advises and, after a mutation, re-sorts only the dirty
// chunks; the requested ranks are then resolved by value-space binary
// search over the runs, so no step concatenates, copies or re-sorts
// the whole extent. Every function returns exactly what quickselect
// returns on the concatenation of the runs: the k-th smallest of a
// multiset does not depend on how the multiset is sharded or who
// sorted it.
package stats

import (
	"math"
	"slices"
	"sort"

	"charles/internal/par"
)

// SortInt64Chunks sorts every chunk ascending in place, one chunk
// per worker-pool task.
func SortInt64Chunks(chunks [][]int64, workers int) {
	_ = par.ForEach(par.Workers(workers), len(chunks), func(c int) error {
		slices.Sort(chunks[c])
		return nil
	})
}

// int64Key maps int64 to uint64 preserving order (flip the sign
// bit), so rank binary searches can bisect the value space without
// signed-midpoint overflow.
func int64Key(v int64) uint64 { return uint64(v) ^ (1 << 63) }

func int64FromKey(u uint64) int64 { return int64(u ^ (1 << 63)) }

// KthSortedInt64Chunks returns the k-th smallest element (0-based)
// of the multiset union of sorted chunks. It binary-searches the
// value space: the answer is the smallest value v with
// count(≤ v) ≥ k+1, located through O(64) probes of c·log(chunk)
// comparisons each — no merge, no copy. Panics when k is out of
// range.
func KthSortedInt64Chunks(chunks [][]int64, k int) int64 {
	n := 0
	loK, hiK := uint64(math.MaxUint64), uint64(0)
	for _, ch := range chunks {
		n += len(ch)
		if len(ch) == 0 {
			continue
		}
		if f := int64Key(ch[0]); f < loK {
			loK = f
		}
		if l := int64Key(ch[len(ch)-1]); l > hiK {
			hiK = l
		}
	}
	if k < 0 || k >= n {
		panic("stats: chunked rank out of range")
	}
	for loK < hiK {
		mid := loK + (hiK-loK)/2
		v := int64FromKey(mid)
		le := 0
		for _, ch := range chunks {
			le += sort.Search(len(ch), func(i int) bool { return ch[i] > v })
		}
		if le >= k+1 {
			hiK = mid
		} else {
			loK = mid + 1
		}
	}
	return int64FromKey(loK)
}

// EquiDepthPointsSorted returns exactly what EquiDepthPoints returns
// on the concatenation of the chunks, which must already be sorted
// ascending (for example, cached sorted runs from an earlier
// computation): up to arity−1 strictly increasing equi-depth points,
// duplicates collapsed and points equal to the global minimum
// dropped. Each point is one rank selection.
func EquiDepthPointsSorted(chunks [][]int64, arity int) []int64 {
	n := 0
	for _, ch := range chunks {
		n += len(ch)
	}
	if arity < 2 || n == 0 {
		return nil
	}
	min := KthSortedInt64Chunks(chunks, 0)
	points := make([]int64, 0, arity-1)
	for i := 1; i < arity; i++ {
		p := KthSortedInt64Chunks(chunks, quantileIndex(n, float64(i)/float64(arity)))
		if p > min && (len(points) == 0 || p > points[len(points)-1]) {
			points = append(points, p)
		}
	}
	return points
}
