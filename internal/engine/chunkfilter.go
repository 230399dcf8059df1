package engine

import "charles/internal/par"

// reserveSegSlots reserves extra scan-pool goroutines for a
// per-chunk fan-out over cs: nothing for selections too small to
// parallelize, and never more than chunks−1 — slots beyond that
// would idle while starving concurrent scans. The paired release
// must always be called. This is the single reservation policy for
// every chunked operation (filters, gathers, reductions, the
// order-statistic sorts), so the sequential-threshold and cap rules
// cannot drift between them.
func reserveSegSlots(cs *ChunkedSelection) (extra int, release func()) {
	workers := ScanWorkers()
	nc := cs.NumChunks()
	if workers <= 1 || nc <= 1 || cs.Len() < parallelScanMinRows {
		return 0, func() {}
	}
	want := workers - 1
	if want > nc-1 {
		want = nc - 1
	}
	extra = grabScanSlots(want, workers)
	return extra, func() { releaseScanSlots(extra) }
}

// forEachSeg runs fn(c) once per chunk of cs, fanning chunks out
// across the scan worker pool. A chunked selection usually has far
// more chunks than workers, so the chunks stream through
// par.ForEach's shared work queue. Small selections and
// slot-exhausted processes stay on the calling goroutine. Callers
// assemble results by chunk index, so scheduling never influences
// output.
func forEachSeg(cs *ChunkedSelection, fn func(c int)) {
	n := cs.NumChunks()
	if n == 0 {
		return
	}
	extra, release := reserveSegSlots(cs)
	defer release()
	if extra == 0 {
		for c := 0; c < n; c++ {
			fn(c)
		}
		return
	}
	_ = par.ForEach(extra+1, n, func(c int) error {
		fn(c)
		return nil
	})
}

// chunkVerdict is a zone-map decision for one chunk.
type chunkVerdict uint8

const (
	// chunkScan: the predicate must be evaluated row by row.
	chunkScan chunkVerdict = iota
	// chunkSkip: no row of the chunk can match; the segment is
	// dropped without a scan.
	chunkSkip
	// chunkTake: every row of the chunk matches; the parent segment
	// passes through by reference without a scan.
	chunkTake
)

// Every predicate kind below comes in two output forms: Filter*Chunked
// narrows a chunked selection, Filter*ChunkedBitmap writes the
// word-packed Bitmap straight from the same comparison — the fused
// form the evaluator uses when a selection will only live as a
// bitmap, which halves the passes over the matching rows and skips
// the intermediate row-id allocation. Both forms of a kind compile
// the predicate through one constructor (its empty-set check, wanted
// set and zone verdict), so they cannot disagree; only the typed
// per-row loops are written twice, to keep them free of per-row
// indirect calls.

// filterSegs runs one predicate in row-id form: verdict prunes or
// passes whole chunks from the zone map, scan narrows the rest
// through the typed scan kernels of filter.go, and the per-chunk
// outputs are reassembled in chunk order.
func filterSegs(cs *ChunkedSelection, verdict func(c int) chunkVerdict, scan func(seg Selection) Selection) *ChunkedSelection {
	m := metricsHook.Load()
	m.VectorKernels.Inc()
	out := make([]Selection, cs.NumChunks())
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		v := verdict(c)
		m.countVerdict(v)
		switch v {
		case chunkSkip:
		case chunkTake:
			out[c] = seg
		default:
			out[c] = scan(seg)
		}
	})
	return NewChunkedSelection(cs.nRows, cs.chunkRows, out)
}

// filterSegsBitmap runs one predicate in fused form: the same
// verdicts as filterSegs, but scanBits runs the typed predicate
// setting bits as it goes (returning how many), and the per-chunk
// bitsets assemble into one chunk-segmented Bitmap. Skipped chunks,
// and chunks whose scan matches nothing, stay nil — never
// allocated; taken chunks set every parent bit without running the
// predicate.
func filterSegsBitmap(cs *ChunkedSelection, verdict func(c int) chunkVerdict, scanBits func(seg Selection, words []uint64, base int32) int) *Bitmap {
	m := metricsHook.Load()
	m.FusedKernels.Inc()
	nc := cs.NumChunks()
	b := newBitmapShell(cs.NumRows(), cs.ChunkRows(), nc)
	ones := make([]int, nc)
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		base := int32(c * b.chunkRows)
		v := verdict(c)
		m.countVerdict(v)
		switch v {
		case chunkSkip:
		case chunkTake:
			words := make([]uint64, b.chunkWordCount(c))
			ones[c] = setSegBits(words, seg, base)
			b.chunks[c] = words
		default:
			words := make([]uint64, b.chunkWordCount(c))
			if n := scanBits(seg, words, base); n > 0 {
				ones[c] = n
				b.chunks[c] = words
			}
		}
	})
	for _, n := range ones {
		b.ones += n
	}
	return b
}

// emptyLike returns the all-empty selection in cs's layout.
func emptyLike(cs *ChunkedSelection) *ChunkedSelection {
	return NewChunkedSelection(cs.nRows, cs.chunkRows, make([]Selection, cs.NumChunks()))
}

// emptyBitmapLike returns the all-empty bitmap in cs's layout.
func emptyBitmapLike(cs *ChunkedSelection) *Bitmap {
	return newBitmapShell(cs.NumRows(), cs.ChunkRows(), cs.NumChunks())
}

// setBit sets the bit of a chunk-local row offset.
func setBit(words []uint64, local int32) {
	words[local>>6] |= 1 << (uint(local) & 63)
}

// scanAlways is the verdict for predicates without a zone map.
func scanAlways(int) chunkVerdict { return chunkScan }

// intRangeVerdict classifies a chunk against a range predicate: skip
// when the chunk's value interval misses [r.Lo, r.Hi] entirely, take
// when the range covers it, scan otherwise. The skip test compares
// against the closed hull of r, which is conservative for exclusive
// bounds; the take test uses r.Contains on both extremes, which is
// exact because Contains is monotone over an interval.
func intRangeVerdict(sum *ChunkSummary, r IntRange) func(c int) chunkVerdict {
	if sum == nil {
		return scanAlways
	}
	return func(c int) chunkVerdict {
		lo, hi := sum.IntBounds(c)
		if hi < r.Lo || lo > r.Hi {
			return chunkSkip
		}
		if r.Contains(lo) && r.Contains(hi) {
			return chunkTake
		}
		return chunkScan
	}
}

// FilterIntRangeChunked narrows cs to rows whose column value lies
// in r, chunk by chunk, skipping chunks the zone map rules out and
// passing through chunks it proves fully inside.
func FilterIntRangeChunked(col IntValued, cs *ChunkedSelection, r IntRange, sum *ChunkSummary) *ChunkedSelection {
	return filterSegs(cs, intRangeVerdict(sum, r), func(seg Selection) Selection {
		return scanIntRange(col, seg, r)
	})
}

// FilterIntRangeChunkedBitmap is FilterIntRangeChunked fused into
// bitmap construction.
func FilterIntRangeChunkedBitmap(col IntValued, cs *ChunkedSelection, r IntRange, sum *ChunkSummary) *Bitmap {
	return filterSegsBitmap(cs, intRangeVerdict(sum, r), func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			if r.Contains(col.Int64(int(row))) {
				setBit(words, row-base)
				n++
			}
		}
		return n
	})
}

// floatRangeVerdict is intRangeVerdict over floats, complicated by
// NaN: FloatRange.Contains(NaN) is true (NaN fails both exclusion
// comparisons), so the scan kernel keeps NaN rows in every range and
// the zone verdict must match it exactly. Skipping therefore needs
// the zone map's proof that the chunk is NaN-free — its finite
// bounds say nothing about NaN rows, which would always match.
// Taking needs no such proof: if the NaN-ignoring bounds fall inside
// the range then every finite row matches, and the NaN rows match by
// the Contains convention (an all-NaN chunk takes too: its NaN
// bounds make Contains true).
func floatRangeVerdict(sum *ChunkSummary, r FloatRange) func(c int) chunkVerdict {
	if sum == nil {
		return scanAlways
	}
	return func(c int) chunkVerdict {
		lo, hi, pure := sum.FloatBounds(c)
		if pure && (hi < r.Lo || lo > r.Hi) {
			return chunkSkip
		}
		if r.Contains(lo) && r.Contains(hi) {
			return chunkTake
		}
		return chunkScan
	}
}

// FilterFloatRangeChunked is FilterIntRangeChunked over floats.
func FilterFloatRangeChunked(col FloatValued, cs *ChunkedSelection, r FloatRange, sum *ChunkSummary) *ChunkedSelection {
	return filterSegs(cs, floatRangeVerdict(sum, r), func(seg Selection) Selection {
		return scanFloatRange(col, seg, r)
	})
}

// FilterFloatRangeChunkedBitmap is FilterFloatRangeChunked fused
// into bitmap construction.
func FilterFloatRangeChunkedBitmap(col FloatValued, cs *ChunkedSelection, r FloatRange, sum *ChunkSummary) *Bitmap {
	return filterSegsBitmap(cs, floatRangeVerdict(sum, r), func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			if r.Contains(col.Float64(int(row))) {
				setBit(words, row-base)
				n++
			}
		}
		return n
	})
}

// intSetPredicate compiles an int64 set predicate: the membership
// set, and a verdict that prunes chunks whose value interval misses
// the set's hull [min(values), max(values)]. ok is false for the
// empty set, which matches no row.
func intSetPredicate(values []int64, sum *ChunkSummary) (want map[int64]struct{}, verdict func(c int) chunkVerdict, ok bool) {
	if len(values) == 0 {
		return nil, nil, false
	}
	want = make(map[int64]struct{}, len(values))
	wmin, wmax := values[0], values[0]
	for _, v := range values {
		want[v] = struct{}{}
		wmin, wmax = min(wmin, v), max(wmax, v)
	}
	if sum == nil {
		return want, scanAlways, true
	}
	return want, func(c int) chunkVerdict {
		lo, hi := sum.IntBounds(c)
		if hi < wmin || lo > wmax {
			return chunkSkip
		}
		return chunkScan
	}, true
}

// FilterIntSetChunked narrows cs to rows whose int64 value appears
// in values.
func FilterIntSetChunked(col IntValued, cs *ChunkedSelection, values []int64, sum *ChunkSummary) *ChunkedSelection {
	want, verdict, ok := intSetPredicate(values, sum)
	if !ok {
		return emptyLike(cs)
	}
	return filterSegs(cs, verdict, func(seg Selection) Selection {
		return scanIntSet(col, seg, want)
	})
}

// FilterIntSetChunkedBitmap is FilterIntSetChunked fused into bitmap
// construction.
func FilterIntSetChunkedBitmap(col IntValued, cs *ChunkedSelection, values []int64, sum *ChunkSummary) *Bitmap {
	want, verdict, ok := intSetPredicate(values, sum)
	if !ok {
		return emptyBitmapLike(cs)
	}
	return filterSegsBitmap(cs, verdict, func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			if _, ok := want[col.Int64(int(row))]; ok {
				setBit(words, row-base)
				n++
			}
		}
		return n
	})
}

// floatSetPredicate is intSetPredicate over floats. NaN values enter
// the map as unreachable entries (map lookups never find NaN keys,
// so NaN rows never match a set) and stay out of the hull; because
// no NaN row can match, hull skipping needs no NaN-free proof,
// unlike the float range verdict. An all-NaN set keeps the empty
// hull [0, 0], which prunes only chunks where nothing could match.
func floatSetPredicate(values []float64, sum *ChunkSummary) (want map[float64]struct{}, verdict func(c int) chunkVerdict, ok bool) {
	if len(values) == 0 {
		return nil, nil, false
	}
	want = make(map[float64]struct{}, len(values))
	var wmin, wmax float64
	first := true
	for _, v := range values {
		want[v] = struct{}{}
		switch {
		case v != v: // NaN
		case first:
			wmin, wmax, first = v, v, false
		default:
			wmin, wmax = min(wmin, v), max(wmax, v)
		}
	}
	if sum == nil {
		return want, scanAlways, true
	}
	return want, func(c int) chunkVerdict {
		lo, hi, _ := sum.FloatBounds(c)
		if hi < wmin || lo > wmax {
			return chunkSkip
		}
		return chunkScan
	}, true
}

// FilterFloatSetChunked is FilterIntSetChunked over floats.
func FilterFloatSetChunked(col FloatValued, cs *ChunkedSelection, values []float64, sum *ChunkSummary) *ChunkedSelection {
	want, verdict, ok := floatSetPredicate(values, sum)
	if !ok {
		return emptyLike(cs)
	}
	return filterSegs(cs, verdict, func(seg Selection) Selection {
		return scanFloatSet(col, seg, want)
	})
}

// FilterFloatSetChunkedBitmap is FilterFloatSetChunked fused into
// bitmap construction.
func FilterFloatSetChunkedBitmap(col FloatValued, cs *ChunkedSelection, values []float64, sum *ChunkSummary) *Bitmap {
	want, verdict, ok := floatSetPredicate(values, sum)
	if !ok {
		return emptyBitmapLike(cs)
	}
	return filterSegsBitmap(cs, verdict, func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			if _, ok := want[col.Float64(int(row))]; ok {
				setBit(words, row-base)
				n++
			}
		}
		return n
	})
}

// codeSetVerdict classifies a chunk against a wanted dictionary-code
// set using the column's presence summary: skip when the chunk holds
// none of the wanted codes, take when every distinct code it holds
// is wanted (so the whole segment passes through by reference), scan
// otherwise. Chunks whose sparse code list overflowed always scan.
func codeSetVerdict(sum *ChunkSummary, want codeSet) func(c int) chunkVerdict {
	if sum == nil || (sum.codeBits == nil && sum.codeList == nil) {
		return scanAlways
	}
	if sum.codeBits != nil {
		return func(c int) chunkVerdict {
			anyWanted, allWanted := false, true
			for i, present := range sum.codeBits[c] {
				w := want.word(i)
				if present&w != 0 {
					anyWanted = true
				}
				if present&^w != 0 {
					allWanted = false
				}
			}
			return presenceVerdict(anyWanted, allWanted)
		}
	}
	return func(c int) chunkVerdict {
		if sum.codeOverflow[c] {
			return chunkScan
		}
		anyWanted, allWanted := false, true
		for _, code := range sum.codeList[c] {
			if want.has(code) {
				anyWanted = true
			} else {
				allWanted = false
			}
			if anyWanted && !allWanted {
				return chunkScan
			}
		}
		return presenceVerdict(anyWanted, allWanted)
	}
}

// presenceVerdict maps a chunk's overlap with a wanted set to its
// verdict: no wanted value present skips, only wanted values present
// takes, anything else scans.
func presenceVerdict(anyWanted, allWanted bool) chunkVerdict {
	switch {
	case !anyWanted:
		return chunkSkip
	case allWanted:
		return chunkTake
	default:
		return chunkScan
	}
}

// codeSetBits is the fused kernel every string predicate that
// resolved to dictionary codes shares: the code probe writing bits
// directly.
func codeSetBits(codes []uint32, want codeSet) func(seg Selection, words []uint64, base int32) int {
	return func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			if want.has(codes[row]) {
				setBit(words, row-base)
				n++
			}
		}
		return n
	}
}

// stringSetPredicate compiles a string set predicate: the values'
// dictionary codes and the presence verdict over them. ok is false
// when no value is in the dictionary, so no row can match.
func stringSetPredicate(col *StringColumn, values []string, sum *ChunkSummary) (want codeSet, verdict func(c int) chunkVerdict, ok bool) {
	want = stringCodeSet(col, values)
	if want.n == 0 {
		return want, nil, false
	}
	return want, codeSetVerdict(sum, want), true
}

// FilterStringSetChunked narrows cs to rows whose string value is
// one of values, testing membership on dictionary codes. The nominal
// zone map prunes chunks holding no wanted code and passes chunks
// wholesale when every code they hold is wanted.
func FilterStringSetChunked(col *StringColumn, cs *ChunkedSelection, values []string, sum *ChunkSummary) *ChunkedSelection {
	want, verdict, ok := stringSetPredicate(col, values, sum)
	if !ok {
		return emptyLike(cs)
	}
	codes := col.Codes()
	return filterSegs(cs, verdict, func(seg Selection) Selection {
		return scanCodeSet(codes, seg, want)
	})
}

// FilterStringSetChunkedBitmap is FilterStringSetChunked fused into
// bitmap construction.
func FilterStringSetChunkedBitmap(col *StringColumn, cs *ChunkedSelection, values []string, sum *ChunkSummary) *Bitmap {
	want, verdict, ok := stringSetPredicate(col, values, sum)
	if !ok {
		return emptyBitmapLike(cs)
	}
	return filterSegsBitmap(cs, verdict, codeSetBits(col.Codes(), want))
}

// stringRangePredicate compiles a lexicographic interval [lo, hi].
// With a presence summary that can prune, the range resolves to the
// set of dictionary codes it covers — one pass over the dictionary,
// not the rows — which both turns the per-row test into a dense code
// probe and lets the same verdicts prune and pass chunks exactly like
// an explicit value set; ok is false when no code falls inside.
// Without such a summary (pruning ablated, a summary-less caller, or
// a sparse summary every chunk of which overflowed) verdict is nil
// and the caller runs the per-row string comparison directly: paying
// O(dictionary) to build a code set no verdict will profit from would
// make narrow selections over high-cardinality columns *slower* than
// the scan.
func stringRangePredicate(col *StringColumn, lo, hi string, loIncl, hiIncl bool, sum *ChunkSummary) (want codeSet, verdict func(c int) chunkVerdict, ok bool) {
	if sum == nil || !sum.canPruneCodes() {
		return want, nil, true
	}
	want = stringRangeCodeSet(col, lo, hi, loIncl, hiIncl)
	if want.n == 0 {
		return want, nil, false
	}
	return want, codeSetVerdict(sum, want), true
}

// FilterStringRangeChunked narrows cs to rows whose string value
// lies in the lexicographic interval [lo, hi].
func FilterStringRangeChunked(col *StringColumn, cs *ChunkedSelection, lo, hi string, loIncl, hiIncl bool, sum *ChunkSummary) *ChunkedSelection {
	want, verdict, ok := stringRangePredicate(col, lo, hi, loIncl, hiIncl, sum)
	switch {
	case !ok:
		return emptyLike(cs)
	case verdict == nil:
		return filterSegs(cs, scanAlways, func(seg Selection) Selection {
			return scanStringRange(col, seg, lo, hi, loIncl, hiIncl)
		})
	}
	codes := col.Codes()
	return filterSegs(cs, verdict, func(seg Selection) Selection {
		return scanCodeSet(codes, seg, want)
	})
}

// FilterStringRangeChunkedBitmap is FilterStringRangeChunked fused
// into bitmap construction.
func FilterStringRangeChunkedBitmap(col *StringColumn, cs *ChunkedSelection, lo, hi string, loIncl, hiIncl bool, sum *ChunkSummary) *Bitmap {
	want, verdict, ok := stringRangePredicate(col, lo, hi, loIncl, hiIncl, sum)
	switch {
	case !ok:
		return emptyBitmapLike(cs)
	case verdict == nil:
		return filterSegsBitmap(cs, scanAlways, func(seg Selection, words []uint64, base int32) int {
			n := 0
			for _, row := range seg {
				if inStringRange(col.Str(int(row)), lo, hi, loIncl, hiIncl) {
					setBit(words, row-base)
					n++
				}
			}
			return n
		})
	}
	return filterSegsBitmap(cs, verdict, codeSetBits(col.Codes(), want))
}

// boolSetPredicate compiles a bool set predicate into its two flags
// and the presence verdict over the two-value domain. ok is false
// when neither value is wanted.
func boolSetPredicate(values []bool, sum *ChunkSummary) (wantTrue, wantFalse bool, verdict func(c int) chunkVerdict, ok bool) {
	for _, v := range values {
		if v {
			wantTrue = true
		} else {
			wantFalse = true
		}
	}
	if !wantTrue && !wantFalse {
		return false, false, nil, false
	}
	if sum == nil || sum.boolHasTrue == nil {
		return wantTrue, wantFalse, scanAlways, true
	}
	return wantTrue, wantFalse, func(c int) chunkVerdict {
		hasTrue, hasFalse := sum.boolHasTrue[c], sum.boolHasFalse[c]
		anyWanted := (wantTrue && hasTrue) || (wantFalse && hasFalse)
		allWanted := (!hasTrue || wantTrue) && (!hasFalse || wantFalse)
		return presenceVerdict(anyWanted, allWanted)
	}, true
}

// FilterBoolSetChunked narrows cs to rows whose boolean value
// appears in values, skipping chunks that hold no wanted value and
// passing chunks every row of which must match.
func FilterBoolSetChunked(col *BoolColumn, cs *ChunkedSelection, values []bool, sum *ChunkSummary) *ChunkedSelection {
	wantTrue, wantFalse, verdict, ok := boolSetPredicate(values, sum)
	if !ok {
		return emptyLike(cs)
	}
	return filterSegs(cs, verdict, func(seg Selection) Selection {
		return scanBoolSet(col, seg, wantTrue, wantFalse)
	})
}

// FilterBoolSetChunkedBitmap is FilterBoolSetChunked fused into
// bitmap construction.
func FilterBoolSetChunkedBitmap(col *BoolColumn, cs *ChunkedSelection, values []bool, sum *ChunkSummary) *Bitmap {
	wantTrue, wantFalse, verdict, ok := boolSetPredicate(values, sum)
	if !ok {
		return emptyBitmapLike(cs)
	}
	return filterSegsBitmap(cs, verdict, func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			if v := col.Bool(int(row)); (v && wantTrue) || (!v && wantFalse) {
				setBit(words, row-base)
				n++
			}
		}
		return n
	})
}
