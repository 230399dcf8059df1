package stats

// ordered covers the element types Charles selects over.
type ordered interface {
	~int64 | ~float64
}

// quickSelect returns the k-th smallest element (0-based) of v,
// reordering v in place. Expected O(n): iterative quickselect with a
// median-of-three pivot and three-way (Dutch national flag)
// partitioning, which stays linear on inputs with heavy duplicates.
func quickSelect[T ordered](v []T, k int) T {
	if k < 0 || k >= len(v) {
		panic("stats: quickselect index out of range")
	}
	lo, hi := 0, len(v)-1
	for lo < hi {
		p := pivotValue(v, lo, hi)
		// Partition [lo..hi] into [<p | ==p | >p].
		lt, gt, i := lo, hi, lo
		for i <= gt {
			switch {
			case v[i] < p:
				v[i], v[lt] = v[lt], v[i]
				lt++
				i++
			case v[i] > p:
				v[i], v[gt] = v[gt], v[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return p
		}
	}
	return v[lo]
}

// pivotValue returns the median of v[lo], v[mid], v[hi] by value.
func pivotValue[T ordered](v []T, lo, hi int) T {
	mid := lo + (hi-lo)/2
	a, b, c := v[lo], v[mid], v[hi]
	switch {
	case a < b:
		switch {
		case b < c:
			return b
		case a < c:
			return c
		default:
			return a
		}
	default: // b <= a
		switch {
		case a < c:
			return a
		case b < c:
			return c
		default:
			return b
		}
	}
}

// MedianInt64 returns the upper median vals[n/2] (the cut point used
// by Definition 5: the left piece takes values strictly below it).
// vals is reordered in place. It panics on empty input.
func MedianInt64(vals []int64) int64 {
	return quickSelect(vals, len(vals)/2)
}

// MedianFloat64 returns the upper median vals[n/2], reordering vals
// in place. It panics on empty input.
func MedianFloat64(vals []float64) float64 {
	return quickSelect(vals, len(vals)/2)
}

// quantileIndex is the rank of the q-quantile of n values:
// floor(q*n) clamped to [0, n-1].
func quantileIndex(n int, q float64) int {
	if n == 0 {
		panic("stats: quantile of empty input")
	}
	k := int(q * float64(n))
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// EquiDepthPoints returns arity−1 split points dividing vals into
// arity pieces of (approximately) equal depth, i.e. the quantiles at
// i/arity for i in 1..arity−1, each one quickselect. The points are
// strictly increasing: duplicate quantile values (heavy duplicates in
// the data) are collapsed, and a point equal to the minimum is
// dropped, so fewer than arity−1 points may be returned. vals is
// reordered in place.
func EquiDepthPoints(vals []int64, arity int) []int64 {
	return equiDepthPoints(vals, arity)
}

// EquiDepthPointsFloat64 is EquiDepthPoints for float64 data. NaN
// values must not be present.
func EquiDepthPointsFloat64(vals []float64, arity int) []float64 {
	return equiDepthPoints(vals, arity)
}

func equiDepthPoints[T ordered](vals []T, arity int) []T {
	if arity < 2 || len(vals) == 0 {
		return nil
	}
	min := vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
	}
	// The ranks are non-decreasing and a selection leaves everything
	// right of rank k at or above it, so each search starts at the
	// previous rank.
	points := make([]T, 0, arity-1)
	lo := 0
	for i := 1; i < arity; i++ {
		k := quantileIndex(len(vals), float64(i)/float64(arity))
		p := quickSelect(vals[lo:], k-lo)
		lo = k
		if p > min && (len(points) == 0 || p > points[len(points)-1]) {
			points = append(points, p)
		}
	}
	return points
}
