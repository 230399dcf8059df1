package engine

import (
	"math"
	"slices"
	"sort"

	"charles/internal/stats"
)

// Row-at-a-time oracles for the chunked kernels: each reads one row
// per step straight off the column, with no chunks, zone maps, pools
// or worker fan-out, so a chunked result that differs from one is a
// kernel bug.

// chunk3 shards sel into 3-row chunks of an n-row table: every test
// selection spans several chunks, some of them empty.
func chunk3(sel Selection, n int) *ChunkedSelection { return ChunkSelection(sel, n, 3) }

// naiveFilter keeps the rows of sel that satisfy keep.
func naiveFilter(sel Selection, keep func(row int) bool) Selection {
	out := Selection{}
	for _, row := range sel {
		if keep(int(row)) {
			out = append(out, row)
		}
	}
	return out
}

// naiveStringSet keeps the rows of sel whose value is in values.
func naiveStringSet(col *StringColumn, sel Selection, values []string) Selection {
	return naiveFilter(sel, func(row int) bool { return slices.Contains(values, col.Str(row)) })
}

func naiveInts(col IntValued, sel Selection) []int64 {
	out := make([]int64, len(sel))
	for i, row := range sel {
		out[i] = col.Int64(int(row))
	}
	return out
}

// naiveFiniteFloats gathers the non-NaN values of col over sel.
func naiveFiniteFloats(col FloatValued, sel Selection) []float64 {
	var out []float64
	for _, row := range sel {
		if v := col.Float64(int(row)); !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

func naiveIntMinMax(col IntValued, sel Selection) (min, max int64, ok bool) {
	for i, v := range naiveInts(col, sel) {
		if i == 0 || v < min {
			min = v
		}
		if i == 0 || v > max {
			max = v
		}
	}
	return min, max, len(sel) > 0
}

// naiveFloatMinMax ignores NaN; an all-NaN selection has NaN bounds.
func naiveFloatMinMax(col FloatValued, sel Selection) (min, max float64, ok bool) {
	if len(sel) == 0 {
		return 0, 0, false
	}
	vals := naiveFiniteFloats(col, sel)
	if len(vals) == 0 {
		return math.NaN(), math.NaN(), true
	}
	sort.Float64s(vals)
	return vals[0], vals[len(vals)-1], true
}

// naiveCutPoints reads equi-depth points off a sorted copy: the
// quantiles at i/arity, duplicates collapsed, the minimum dropped.
// arity 2 yields the upper median unless it equals the minimum.
func naiveCutPoints[T int64 | float64](vals []T, arity int) []T {
	if len(vals) == 0 {
		return nil
	}
	sorted := append([]T(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	points := make([]T, 0, arity-1)
	for i := 1; i < arity; i++ {
		k := int(float64(i) / float64(arity) * float64(len(sorted)))
		if k >= len(sorted) {
			k = len(sorted) - 1
		}
		if p := sorted[k]; p > sorted[0] && (len(points) == 0 || p > points[len(points)-1]) {
			points = append(points, p)
		}
	}
	return points
}

// naiveMedian is the upper median: element n/2 of the sorted values.
func naiveMedian[T int64 | float64](vals []T) (T, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	sorted := append([]T(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2], true
}

// naiveStringCounts counts col's values over sel in dictionary-code
// order, zero counts dropped.
func naiveStringCounts(col *StringColumn, sel Selection) []stats.ValueCount {
	counts := make([]int, col.Cardinality())
	for _, row := range sel {
		counts[col.Code(int(row))]++
	}
	out := []stats.ValueCount{}
	for code, n := range counts {
		if n > 0 {
			out = append(out, stats.ValueCount{Value: col.DictValue(uint32(code)), Count: n})
		}
	}
	return out
}

func naiveBoolCounts(col *BoolColumn, sel Selection) []stats.ValueCount {
	var nFalse, nTrue int
	for _, row := range sel {
		if col.Bool(int(row)) {
			nTrue++
		} else {
			nFalse++
		}
	}
	out := []stats.ValueCount{}
	if nFalse > 0 {
		out = append(out, stats.ValueCount{Value: "false", Count: nFalse})
	}
	if nTrue > 0 {
		out = append(out, stats.ValueCount{Value: "true", Count: nTrue})
	}
	return out
}

// flatInts concatenates per-chunk shards in chunk order.
func flatInts(chunks [][]int64) []int64 {
	out := []int64{}
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	return out
}
