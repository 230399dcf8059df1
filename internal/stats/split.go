package stats

import (
	"cmp"
	"slices"
	"strings"
)

// ValueCount pairs a nominal value with its frequency inside the
// population being split.
type ValueCount struct {
	Value string
	Count int
}

// OrderByFrequency sorts vcs by descending count, breaking ties
// alphabetically so the order is deterministic. This is the ordering
// the paper prescribes for low-cardinality nominal columns ("sort
// the values by order of occurrence").
func OrderByFrequency(vcs []ValueCount) {
	slices.SortFunc(vcs, func(a, b ValueCount) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return strings.Compare(a.Value, b.Value)
	})
}

// OrderAlphabetically sorts vcs by value, the ordering the paper
// prescribes for high-cardinality nominal columns.
func OrderAlphabetically(vcs []ValueCount) {
	slices.SortFunc(vcs, func(a, b ValueCount) int { return strings.Compare(a.Value, b.Value) })
}

// NominalSplitPoint returns the index k (1 ≤ k ≤ len(vcs)−1) such
// that splitting the ordered value list into vcs[:k] and vcs[k:]
// puts the accumulated frequency of the first part as close to 50%
// as possible — the nominal "median" of Section 4.1. The boolean is
// false when no split is possible (fewer than two values).
func NominalSplitPoint(vcs []ValueCount) (int, bool) {
	if len(vcs) < 2 {
		return 0, false
	}
	total := 0
	for _, vc := range vcs {
		total += vc.Count
	}
	if total == 0 {
		return 0, false
	}
	half := float64(total) / 2
	bestK, bestDist := 1, -1.0
	cum := 0
	for k := 1; k < len(vcs); k++ {
		cum += vcs[k-1].Count
		d := half - float64(cum)
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			bestK, bestDist = k, d
		}
	}
	return bestK, true
}

// NominalSplitPoints generalizes NominalSplitPoint to arity-way
// splits: it returns up to arity−1 increasing indices cutting the
// ordered list so each part's accumulated frequency is as close to
// i/arity as possible. Returned indices are strictly increasing and
// within (0, len(vcs)).
func NominalSplitPoints(vcs []ValueCount, arity int) []int {
	if len(vcs) < 2 || arity < 2 {
		return nil
	}
	total := 0
	for _, vc := range vcs {
		total += vc.Count
	}
	if total == 0 {
		return nil
	}
	cum := make([]int, len(vcs)) // cum[k] = count of vcs[:k+1]
	running := 0
	for i, vc := range vcs {
		running += vc.Count
		cum[i] = running
	}
	points := make([]int, 0, arity-1)
	prev := 0
	for i := 1; i < arity; i++ {
		target := float64(total) * float64(i) / float64(arity)
		bestK, bestDist := 0, -1.0
		for k := prev + 1; k < len(vcs); k++ {
			d := target - float64(cum[k-1])
			if d < 0 {
				d = -d
			}
			if bestDist < 0 || d < bestDist {
				bestK, bestDist = k, d
			}
		}
		if bestK == 0 { // no room left for further split points
			break
		}
		points = append(points, bestK)
		prev = bestK
	}
	return points
}
