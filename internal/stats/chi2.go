package stats

import "math"

// ChiSquare computes Pearson's chi-squared statistic and its degrees
// of freedom for the joint count matrix cells (rows × columns).
// Rows or columns whose marginal is zero are ignored. The second
// return value is 0 when the table is degenerate (fewer than two
// populated rows or columns), in which case the statistic is 0.
func ChiSquare(cells [][]int) (stat float64, dof int) {
	if len(cells) == 0 {
		return 0, 0
	}
	nRows, nCols := len(cells), len(cells[0])
	rowSum := make([]float64, nRows)
	colSum := make([]float64, nCols)
	total := 0.0
	for i := range cells {
		for j, c := range cells[i] {
			rowSum[i] += float64(c)
			colSum[j] += float64(c)
			total += float64(c)
		}
	}
	if total == 0 {
		return 0, 0
	}
	liveRows, liveCols := 0, 0
	for _, s := range rowSum {
		if s > 0 {
			liveRows++
		}
	}
	for _, s := range colSum {
		if s > 0 {
			liveCols++
		}
	}
	if liveRows < 2 || liveCols < 2 {
		return 0, 0
	}
	for i := range cells {
		if rowSum[i] == 0 {
			continue
		}
		for j, c := range cells[i] {
			if colSum[j] == 0 {
				continue
			}
			expected := rowSum[i] * colSum[j] / total
			d := float64(c) - expected
			stat += d * d / expected
		}
	}
	return stat, (liveRows - 1) * (liveCols - 1)
}

// ChiSquarePValue returns P(X ≥ stat) for a chi-squared variable
// with dof degrees of freedom: the upper regularized incomplete
// gamma function Q(dof/2, stat/2). It returns 1 for dof ≤ 0.
func ChiSquarePValue(stat float64, dof int) float64 {
	if dof <= 0 || stat <= 0 {
		return 1
	}
	return upperRegularizedGamma(float64(dof)/2, stat/2)
}

// ChiSquareFlat is ChiSquare over a row-major flat nRows×nCols count
// vector — the layout the pairwise cell loop fills — so callers that
// own a flat buffer never materialize the [][]int view. It mirrors
// ChiSquare case for case; rowSum and colSum are caller-provided
// scratch of length nRows and nCols (overwritten), letting hot
// callers pool them.
func ChiSquareFlat(flat []int, nRows, nCols int, rowSum, colSum []float64) (stat float64, dof int) {
	if nRows == 0 || nCols == 0 {
		return 0, 0
	}
	for i := range rowSum {
		rowSum[i] = 0
	}
	for j := range colSum {
		colSum[j] = 0
	}
	total := 0.0
	for i := 0; i < nRows; i++ {
		for j, c := range flat[i*nCols : (i+1)*nCols] {
			rowSum[i] += float64(c)
			colSum[j] += float64(c)
			total += float64(c)
		}
	}
	if total == 0 {
		return 0, 0
	}
	liveRows, liveCols := 0, 0
	for _, s := range rowSum {
		if s > 0 {
			liveRows++
		}
	}
	for _, s := range colSum {
		if s > 0 {
			liveCols++
		}
	}
	if liveRows < 2 || liveCols < 2 {
		return 0, 0
	}
	for i := 0; i < nRows; i++ {
		if rowSum[i] == 0 {
			continue
		}
		for j, c := range flat[i*nCols : (i+1)*nCols] {
			if colSum[j] == 0 {
				continue
			}
			expected := rowSum[i] * colSum[j] / total
			d := float64(c) - expected
			stat += d * d / expected
		}
	}
	return stat, (liveRows - 1) * (liveCols - 1)
}

// ChiSquareIndependentFlat reports whether the flat joint counts are
// consistent with independence at significance level alpha: true
// when the p-value is at least alpha (we fail to reject
// independence). rowSum and colSum are caller-pooled marginal
// scratch, as for ChiSquareFlat.
func ChiSquareIndependentFlat(flat []int, nRows, nCols int, rowSum, colSum []float64, alpha float64) bool {
	stat, dof := ChiSquareFlat(flat, nRows, nCols, rowSum, colSum)
	return ChiSquarePValue(stat, dof) >= alpha
}

// upperRegularizedGamma computes Q(a, x) = Γ(a, x)/Γ(a) using the
// series expansion for x < a+1 and the continued fraction otherwise
// (Numerical Recipes §6.2 style, stdlib math only).
func upperRegularizedGamma(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return 1
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - lowerGammaSeries(a, x)
	}
	return upperGammaContinuedFraction(a, x)
}

func lowerGammaSeries(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func upperGammaContinuedFraction(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
