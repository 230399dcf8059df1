package engine

// Fused filter→bitmap scans: the same predicate kernels as the
// chunked filters, but writing the word-packed Bitmap directly
// instead of materializing a row-id Selection first and converting
// it. When the evaluator knows a selection will live as a bitmap
// (dense extents under the auto representation, or RepBitmap
// forced), this halves the passes over the matching rows and skips
// the intermediate row-id allocation entirely. Verdicts behave
// exactly as in filterSegs: skipped chunks stay nil (never
// allocated), taken chunks set every parent bit without running the
// predicate.

// filterSegsBitmap is the fused driver: verdict prunes or passes
// whole chunks from the zone map, scanBits runs the typed predicate
// over the rest setting bits as it goes (returning how many), and
// the per-chunk bitsets assemble into one chunk-segmented Bitmap.
// A chunk whose scan matches nothing stays nil, preserving the
// empty-chunks-never-allocated invariant.
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

// emptyBitmapLike returns the all-empty bitmap in cs's layout.
func emptyBitmapLike(cs *ChunkedSelection) *Bitmap {
	return newBitmapShell(cs.NumRows(), cs.ChunkRows(), cs.NumChunks())
}

// FilterIntRangeChunkedBitmap is FilterIntRangeChunked fused into
// bitmap construction.
func FilterIntRangeChunkedBitmap(col IntValued, cs *ChunkedSelection, r IntRange, sum *ChunkSummary) *Bitmap {
	return filterSegsBitmap(cs, intRangeVerdict(sum, r), func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			if r.Contains(col.Int64(int(row))) {
				local := row - base
				words[local>>6] |= 1 << (uint(local) & 63)
				n++
			}
		}
		return n
	})
}

// FilterFloatRangeChunkedBitmap is FilterFloatRangeChunked fused
// into bitmap construction.
func FilterFloatRangeChunkedBitmap(col FloatValued, cs *ChunkedSelection, r FloatRange, sum *ChunkSummary) *Bitmap {
	return filterSegsBitmap(cs, floatRangeVerdict(sum, r), func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			if r.Contains(col.Float64(int(row))) {
				local := row - base
				words[local>>6] |= 1 << (uint(local) & 63)
				n++
			}
		}
		return n
	})
}

// FilterIntSetChunkedBitmap is FilterIntSetChunked fused into bitmap
// construction.
func FilterIntSetChunkedBitmap(col IntValued, cs *ChunkedSelection, values []int64, sum *ChunkSummary) *Bitmap {
	if len(values) == 0 {
		return emptyBitmapLike(cs)
	}
	want, wmin, wmax := int64Set(values)
	verdict := scanAlways
	if sum != nil {
		verdict = func(c int) chunkVerdict {
			lo, hi := sum.IntBounds(c)
			if hi < wmin || lo > wmax {
				return chunkSkip
			}
			return chunkScan
		}
	}
	return filterSegsBitmap(cs, verdict, func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			if _, ok := want[col.Int64(int(row))]; ok {
				local := row - base
				words[local>>6] |= 1 << (uint(local) & 63)
				n++
			}
		}
		return n
	})
}

// FilterFloatSetChunkedBitmap is FilterFloatSetChunked fused into
// bitmap construction.
func FilterFloatSetChunkedBitmap(col FloatValued, cs *ChunkedSelection, values []float64, sum *ChunkSummary) *Bitmap {
	if len(values) == 0 {
		return emptyBitmapLike(cs)
	}
	want, wmin, wmax := float64Set(values)
	verdict := scanAlways
	if sum != nil {
		verdict = func(c int) chunkVerdict {
			lo, hi, _ := sum.FloatBounds(c)
			if hi < wmin || lo > wmax {
				return chunkSkip
			}
			return chunkScan
		}
	}
	return filterSegsBitmap(cs, verdict, func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			if _, ok := want[col.Float64(int(row))]; ok {
				local := row - base
				words[local>>6] |= 1 << (uint(local) & 63)
				n++
			}
		}
		return n
	})
}

// codeSetBits is the shared fused kernel for string predicates: the
// dictionary-code comparison loop writing bits directly.
func codeSetBits(codes []uint32, want codeSet) func(seg Selection, words []uint64, base int32) int {
	return func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			if want.has(codes[row]) {
				local := row - base
				words[local>>6] |= 1 << (uint(local) & 63)
				n++
			}
		}
		return n
	}
}

// FilterStringSetChunkedBitmap is FilterStringSetChunked fused into
// bitmap construction.
func FilterStringSetChunkedBitmap(col *StringColumn, cs *ChunkedSelection, values []string, sum *ChunkSummary) *Bitmap {
	if len(values) == 0 {
		return emptyBitmapLike(cs)
	}
	want := stringCodeSet(col, values)
	if want.n == 0 {
		return emptyBitmapLike(cs)
	}
	return filterSegsBitmap(cs, codeSetVerdict(sum, want), codeSetBits(col.Codes(), want))
}

// FilterStringRangeChunkedBitmap is FilterStringRangeChunked fused
// into bitmap construction, with the same summary-gated choice
// between the code-set resolution and the direct string-comparison
// scan.
func FilterStringRangeChunkedBitmap(col *StringColumn, cs *ChunkedSelection, lo, hi string, loIncl, hiIncl bool, sum *ChunkSummary) *Bitmap {
	if sum == nil || !sum.canPruneCodes() {
		return filterSegsBitmap(cs, scanAlways, func(seg Selection, words []uint64, base int32) int {
			n := 0
			for _, row := range seg {
				v := col.Str(int(row))
				if v < lo || (v == lo && !loIncl) {
					continue
				}
				if v > hi || (v == hi && !hiIncl) {
					continue
				}
				local := row - base
				words[local>>6] |= 1 << (uint(local) & 63)
				n++
			}
			return n
		})
	}
	want := stringRangeCodeSet(col, lo, hi, loIncl, hiIncl)
	if want.n == 0 {
		return emptyBitmapLike(cs)
	}
	return filterSegsBitmap(cs, codeSetVerdict(sum, want), codeSetBits(col.Codes(), want))
}

// FilterBoolSetChunkedBitmap is FilterBoolSetChunked fused into
// bitmap construction.
func FilterBoolSetChunkedBitmap(col *BoolColumn, cs *ChunkedSelection, values []bool, sum *ChunkSummary) *Bitmap {
	wantTrue, wantFalse := boolWants(values)
	if !wantTrue && !wantFalse {
		return emptyBitmapLike(cs)
	}
	return filterSegsBitmap(cs, boolSetVerdict(sum, wantTrue, wantFalse), func(seg Selection, words []uint64, base int32) int {
		n := 0
		for _, row := range seg {
			v := col.Bool(int(row))
			if (v && wantTrue) || (!v && wantFalse) {
				local := row - base
				words[local>>6] |= 1 << (uint(local) & 63)
				n++
			}
		}
		return n
	})
}
