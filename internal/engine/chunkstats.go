package engine

import (
	"math"

	"charles/internal/par"
	"charles/internal/stats"
)

// GatherIntChunked materializes col's int64 values per chunk: one
// output slice per chunk, aligned with cs's segments, gathered
// across the scan worker pool.
func GatherIntChunked(col IntValued, cs *ChunkedSelection) [][]int64 {
	out := make([][]int64, cs.NumChunks())
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		vals := make([]int64, len(seg))
		for i, row := range seg {
			vals[i] = col.Int64(int(row))
		}
		out[c] = vals
	})
	return out
}

// GatherFloatChunked is GatherIntChunked for float columns.
func GatherFloatChunked(col FloatValued, cs *ChunkedSelection) [][]float64 {
	out := make([][]float64, cs.NumChunks())
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		vals := make([]float64, len(seg))
		for i, row := range seg {
			vals[i] = col.Float64(int(row))
		}
		out[c] = vals
	})
	return out
}

// IntMinMaxChunked returns the minimum and maximum of col over cs by
// reducing per-chunk partials in chunk order. ok is false when the
// selection is empty.
func IntMinMaxChunked(col IntValued, cs *ChunkedSelection) (min, max int64, ok bool) {
	if cs.Len() == 0 {
		return 0, 0, false
	}
	nc := cs.NumChunks()
	mins := make([]int64, nc)
	maxs := make([]int64, nc)
	seen := make([]bool, nc)
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		lo := col.Int64(int(seg[0]))
		hi := lo
		for _, row := range seg[1:] {
			v := col.Int64(int(row))
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		mins[c], maxs[c], seen[c] = lo, hi, true
	})
	first := true
	for c := 0; c < nc; c++ {
		if !seen[c] {
			continue
		}
		if first {
			min, max, first = mins[c], maxs[c], false
			continue
		}
		if mins[c] < min {
			min = mins[c]
		}
		if maxs[c] > max {
			max = maxs[c]
		}
	}
	return min, max, true
}

// FloatMinMaxChunked is IntMinMaxChunked over floats, ignoring NaN:
// NaN compares false against everything, so letting one seed a
// running bound would poison it and make the result depend on where
// chunk boundaries fall. NaN rows never seed or move a bound, and an
// all-NaN selection yields NaN bounds.
func FloatMinMaxChunked(col FloatValued, cs *ChunkedSelection) (min, max float64, ok bool) {
	if cs.Len() == 0 {
		return 0, 0, false
	}
	nc := cs.NumChunks()
	mins := make([]float64, nc)
	maxs := make([]float64, nc)
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		lo, hi := math.NaN(), math.NaN()
		for _, row := range seg {
			v := col.Float64(int(row))
			if v != v { // NaN
				continue
			}
			if lo != lo || v < lo {
				lo = v
			}
			if hi != hi || v > hi {
				hi = v
			}
		}
		mins[c], maxs[c] = lo, hi
	})
	min, max = math.NaN(), math.NaN()
	for c := 0; c < nc; c++ {
		if len(cs.Seg(c)) == 0 {
			continue
		}
		if mins[c] == mins[c] && (min != min || mins[c] < min) {
			min = mins[c]
		}
		if maxs[c] == maxs[c] && (max != max || maxs[c] > max) {
			max = maxs[c]
		}
	}
	return min, max, true
}

// statWorkers reserves scan-pool slots for a chunked computation
// that fans out by itself (value-count bands, per-chunk sorts),
// returning the worker count and the paired release. Routing it
// through the same slot budget (reserveSegSlots) as the scans keeps
// nested parallelism — many advise workers each computing cut
// points — from oversubscribing the scheduler. Reserve only after
// any gather phase: the gather takes slots of its own, and holding
// them across it would starve it to sequential.
func statWorkers(cs *ChunkedSelection) (workers int, release func()) {
	extra, release := reserveSegSlots(cs)
	return extra + 1, release
}

// gatherIntScratch is GatherIntChunked into pooled scratch buffers:
// the shards feed one order-statistic computation and go straight
// back to the pool via release, so a warm advisor's cut-point math
// stops allocating gather targets. Callers must not retain any shard
// past release.
func gatherIntScratch(col IntValued, cs *ChunkedSelection) (chunks [][]int64, release func()) {
	nc := cs.NumChunks()
	chunks = make([][]int64, nc)
	ptrs := make([]*[]int64, nc)
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		p := int64Scratch.Get(len(seg))
		vals := *p
		for i, row := range seg {
			vals[i] = col.Int64(int(row))
		}
		ptrs[c], chunks[c] = p, vals
	})
	return chunks, func() {
		for _, p := range ptrs {
			if p != nil {
				int64Scratch.Put(p)
			}
		}
	}
}

// flattenInt64Scratch concatenates per-chunk shards into one pooled
// vector of exactly n elements.
func flattenInt64Scratch(chunks [][]int64, n int) (*[]int64, []int64) {
	p := int64Scratch.Get(n)
	out := (*p)[:0]
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	//lint:pooledescape deliberate ownership transfer: every caller defers Put(p) before using out
	return p, out
}

func flattenFloat64Scratch(chunks [][]float64, n int) (*[]float64, []float64) {
	p := float64Scratch.Get(n)
	out := (*p)[:0]
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	//lint:pooledescape deliberate ownership transfer: every caller defers Put(p) before using out
	return p, out
}

// posZero canonicalizes -0.0 to +0.0. -0.0 and +0.0 compare equal,
// so quickselect returns whichever zero's bit pattern happened to sit
// at the rank; canonicalizing keeps a selected zero rendering as "0",
// never "-0", whatever the scan order was.
func posZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// gatherFloatFinite is GatherFloatChunked minus NaN values, into
// pooled scratch buffers: the order statistics (medians, equi-depth
// points) need a totally ordered multiset, and NaN has no rank.
// Dropping it here keeps the cut points a function of the finite
// values only, mirroring the NaN convention of FloatMinMaxChunked. n
// is the finite-value total. Callers must not retain any shard past
// release.
func gatherFloatFinite(col FloatValued, cs *ChunkedSelection) (chunks [][]float64, n int, release func()) {
	nc := cs.NumChunks()
	chunks = make([][]float64, nc)
	ptrs := make([]*[]float64, nc)
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		p := float64Scratch.Get(len(seg))
		vals := (*p)[:0]
		for _, row := range seg {
			v := col.Float64(int(row))
			if v == v { // not NaN
				vals = append(vals, v)
			}
		}
		ptrs[c], chunks[c] = p, vals
	})
	for _, ch := range chunks {
		n += len(ch)
	}
	return chunks, n, func() {
		for _, p := range ptrs {
			if p != nil {
				float64Scratch.Put(p)
			}
		}
	}
}

// IntMedianChunked returns the upper median of col over cs — the
// Definition 5 cut point: per-chunk gather into pooled scratch, one
// flatten, then an O(n) quickselect. ok is false when the selection
// is empty.
func IntMedianChunked(col IntValued, cs *ChunkedSelection) (int64, bool) {
	if cs.Len() == 0 {
		return 0, false
	}
	chunks, put := gatherIntScratch(col, cs)
	defer put()
	p, flat := flattenInt64Scratch(chunks, cs.Len())
	defer int64Scratch.Put(p)
	return stats.MedianInt64(flat), true
}

// FloatMedianChunked is IntMedianChunked for float columns. NaN
// values carry no rank and are excluded before selection; an all-NaN
// extent has no median (ok = false). A selected zero is returned as
// +0.0.
func FloatMedianChunked(col FloatValued, cs *ChunkedSelection) (float64, bool) {
	if cs.Len() == 0 {
		return 0, false
	}
	chunks, n, put := gatherFloatFinite(col, cs)
	defer put()
	if n == 0 {
		return 0, false
	}
	p, flat := flattenFloat64Scratch(chunks, n)
	defer float64Scratch.Put(p)
	return posZero(stats.MedianFloat64(flat)), true
}

// IntCutPointsChunked returns up to arity−1 strictly increasing
// equi-depth cut points of col over cs (Section 5.2's quantile
// generalization; arity 2 is the paper's median cut), by the same
// gather, flatten and quickselect as IntMedianChunked.
func IntCutPointsChunked(col IntValued, cs *ChunkedSelection, arity int) []int64 {
	if cs.Len() == 0 {
		return nil
	}
	chunks, put := gatherIntScratch(col, cs)
	defer put()
	p, flat := flattenInt64Scratch(chunks, cs.Len())
	defer int64Scratch.Put(p)
	return stats.EquiDepthPoints(flat, arity)
}

// FloatCutPointsChunked is IntCutPointsChunked for float columns,
// with NaN values excluded and zeros canonicalized like
// FloatMedianChunked.
func FloatCutPointsChunked(col FloatValued, cs *ChunkedSelection, arity int) []float64 {
	if cs.Len() == 0 {
		return nil
	}
	chunks, n, put := gatherFloatFinite(col, cs)
	defer put()
	if n == 0 {
		return nil
	}
	p, flat := flattenFloat64Scratch(chunks, n)
	defer float64Scratch.Put(p)
	points := stats.EquiDepthPointsFloat64(flat, arity)
	for i, v := range points {
		points[i] = posZero(v)
	}
	return points
}

// StringValueCountsChunked returns the per-value frequencies of col
// over cs. Chunks are grouped into contiguous bands, one histogram
// per band, so the transient memory is worker-count × cardinality —
// not chunk-count × cardinality, which on a 10M-row table with a
// high-cardinality column would dwarf the data scanned. Counts are
// additive, so the band merge is order-independent and the result is
// ordered by dictionary code whatever the band count.
func StringValueCountsChunked(col *StringColumn, cs *ChunkedSelection) []stats.ValueCount {
	codes := col.Codes()
	nc := cs.NumChunks()
	workers, release := statWorkers(cs)
	defer release()
	if workers > nc {
		workers = nc
	}
	if workers < 1 {
		workers = 1
	}
	bandSize := (nc + workers - 1) / workers
	numBands := 0
	if nc > 0 {
		numBands = (nc + bandSize - 1) / bandSize
	}
	partials := make([][]int, numBands)
	_ = par.ForEach(workers, numBands, func(b int) error {
		counts := make([]int, col.Cardinality())
		hi := (b + 1) * bandSize
		if hi > nc {
			hi = nc
		}
		for c := b * bandSize; c < hi; c++ {
			for _, row := range cs.Seg(c) {
				counts[codes[row]]++
			}
		}
		partials[b] = counts
		return nil
	})
	counts := make([]int, col.Cardinality())
	for _, p := range partials {
		for code, n := range p {
			counts[code] += n
		}
	}
	out := make([]stats.ValueCount, 0, len(counts))
	for code, n := range counts {
		if n > 0 {
			out = append(out, stats.ValueCount{Value: col.DictValue(uint32(code)), Count: n})
		}
	}
	return out
}

// BoolValueCountsChunked is StringValueCountsChunked for bool
// columns.
func BoolValueCountsChunked(col *BoolColumn, cs *ChunkedSelection) []stats.ValueCount {
	nc := cs.NumChunks()
	trues := make([]int, nc)
	falses := make([]int, nc)
	forEachSeg(cs, func(c int) {
		for _, row := range cs.Seg(c) {
			if col.Bool(int(row)) {
				trues[c]++
			} else {
				falses[c]++
			}
		}
	})
	var nTrue, nFalse int
	for c := 0; c < nc; c++ {
		nTrue += trues[c]
		nFalse += falses[c]
	}
	out := make([]stats.ValueCount, 0, 2)
	if nFalse > 0 {
		out = append(out, stats.ValueCount{Value: "false", Count: nFalse})
	}
	if nTrue > 0 {
		out = append(out, stats.ValueCount{Value: "true", Count: nTrue})
	}
	return out
}

// IntSortedRuns gathers col over cs into one freshly allocated sorted
// slice per chunk — the retainable form of the cut-point math that
// the incremental-advise cut cache keeps across advises. Unlike
// gatherIntScratch the shards are owned by the caller and must be
// treated as immutable once returned (they may be shared between an
// old and a spliced cache entry).
func IntSortedRuns(col IntValued, cs *ChunkedSelection) [][]int64 {
	runs := GatherIntChunked(col, cs)
	workers, release := statWorkers(cs)
	defer release()
	stats.SortInt64Chunks(runs, workers)
	return runs
}

// IntSortedRunsSplice refreshes cached sorted runs after a mutation:
// dirty chunks are re-gathered from the current selection and
// re-sorted, clean chunks reuse the old runs unchanged. Sound for the
// same reason selection splicing is — a selection restricted to a
// clean chunk is a pure function of that chunk's unchanged rows, so
// its sorted value multiset cannot have moved. ok is false when a
// clean chunk's cached run does not match the current selection's
// segment length (a structural mismatch; the caller must recompute in
// full).
func IntSortedRunsSplice(col IntValued, cs *ChunkedSelection, old [][]int64, dirty []bool) (runs [][]int64, ok bool) {
	nc := cs.NumChunks()
	if len(dirty) != nc {
		return nil, false
	}
	runs = make([][]int64, nc)
	for c := 0; c < nc; c++ {
		if dirty[c] {
			continue
		}
		if c >= len(old) || len(old[c]) != len(cs.Seg(c)) {
			return nil, false
		}
		runs[c] = old[c]
	}
	fresh := IntSortedRuns(col, RestrictChunked(cs, dirty))
	for c := 0; c < nc; c++ {
		if dirty[c] {
			runs[c] = fresh[c]
		}
	}
	return runs, true
}

// IntRunsBounds returns the minimum and maximum over sorted runs —
// the run endpoints, no scan. ok is false when every run is empty.
func IntRunsBounds(runs [][]int64) (min, max int64, ok bool) {
	for _, r := range runs {
		if len(r) == 0 {
			continue
		}
		if !ok {
			min, max, ok = r[0], r[len(r)-1], true
			continue
		}
		if r[0] < min {
			min = r[0]
		}
		if r[len(r)-1] > max {
			max = r[len(r)-1]
		}
	}
	return min, max, ok
}

// IntCutPointsSorted is IntCutPointsChunked over already-sorted runs:
// pure rank selection, no gather and no sort. The equi-depth points
// of a multiset do not depend on its sharding or on who sorted it, so
// the result is byte-identical to the scratch-based computation.
func IntCutPointsSorted(runs [][]int64, arity int) []int64 {
	return stats.EquiDepthPointsSorted(runs, arity)
}

// StringChunkCounts returns per-chunk value frequencies of col over
// cs, indexed by dictionary code: counts[c][code]. This is the
// splice-friendly decomposition of StringValueCountsChunked — counts
// are additive over chunks, so a mutation only invalidates the dirty
// chunks' vectors. The vectors are owned by the caller and must be
// treated as immutable once returned.
func StringChunkCounts(col *StringColumn, cs *ChunkedSelection) [][]int {
	codes := col.Codes()
	card := col.Cardinality()
	nc := cs.NumChunks()
	counts := make([][]int, nc)
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		v := make([]int, card)
		for _, row := range seg {
			v[codes[row]]++
		}
		counts[c] = v
	})
	return counts
}

// StringChunkCountsSplice refreshes cached per-chunk counts after a
// mutation: dirty chunks are recounted (at the current, possibly
// grown cardinality), clean chunks keep their vectors. A clean
// chunk's vector may be shorter than the current cardinality — codes
// minted after it was counted cannot occur in an unchanged chunk, so
// the missing tail is implicitly zero. ok is false on a structural
// mismatch.
func StringChunkCountsSplice(col *StringColumn, cs *ChunkedSelection, old [][]int, dirty []bool) (counts [][]int, ok bool) {
	nc := cs.NumChunks()
	if len(dirty) != nc {
		return nil, false
	}
	counts = make([][]int, nc)
	for c := 0; c < nc; c++ {
		if dirty[c] {
			continue
		}
		if c >= len(old) {
			return nil, false
		}
		n := 0
		for _, k := range old[c] {
			n += k
		}
		if n != len(cs.Seg(c)) {
			return nil, false
		}
		counts[c] = old[c]
	}
	fresh := StringChunkCounts(col, RestrictChunked(cs, dirty))
	for c := 0; c < nc; c++ {
		if dirty[c] {
			counts[c] = fresh[c]
		}
	}
	return counts, true
}

// StringCountsFromChunks reduces per-chunk count vectors to the exact
// []ValueCount StringValueCountsChunked returns: summed per code, in
// dictionary-code order, zero-count values dropped.
func StringCountsFromChunks(col *StringColumn, counts [][]int) []stats.ValueCount {
	totals := make([]int, col.Cardinality())
	for _, v := range counts {
		for code, n := range v {
			totals[code] += n
		}
	}
	out := make([]stats.ValueCount, 0, len(totals))
	for code, n := range totals {
		if n > 0 {
			out = append(out, stats.ValueCount{Value: col.DictValue(uint32(code)), Count: n})
		}
	}
	return out
}
