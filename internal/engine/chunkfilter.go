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

// filterSegs is the shared chunked-filter driver: verdict prunes or
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

// emptyLike returns the all-empty selection in cs's layout.
func emptyLike(cs *ChunkedSelection) *ChunkedSelection {
	return NewChunkedSelection(cs.nRows, cs.chunkRows, make([]Selection, cs.NumChunks()))
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

// FilterIntRangeChunked narrows cs to rows whose column value lies
// in r, chunk by chunk, skipping chunks the zone map rules out and
// passing through chunks it proves fully inside.
func FilterIntRangeChunked(col IntValued, cs *ChunkedSelection, r IntRange, sum *ChunkSummary) *ChunkedSelection {
	return filterSegs(cs, intRangeVerdict(sum, r), func(seg Selection) Selection {
		return scanIntRange(col, seg, r)
	})
}

// FilterFloatRangeChunked is FilterIntRangeChunked over floats.
func FilterFloatRangeChunked(col FloatValued, cs *ChunkedSelection, r FloatRange, sum *ChunkSummary) *ChunkedSelection {
	return filterSegs(cs, floatRangeVerdict(sum, r), func(seg Selection) Selection {
		return scanFloatRange(col, seg, r)
	})
}

// FilterIntSetChunked narrows cs to rows whose int64 value appears
// in values. The zone map prunes chunks whose value interval misses
// the set's hull [min(values), max(values)].
func FilterIntSetChunked(col IntValued, cs *ChunkedSelection, values []int64, sum *ChunkSummary) *ChunkedSelection {
	if len(values) == 0 {
		return emptyLike(cs)
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
	return filterSegs(cs, verdict, func(seg Selection) Selection {
		return scanIntSet(col, seg, want)
	})
}

// FilterFloatSetChunked is FilterIntSetChunked over floats. NaN rows
// never match a set (map lookups cannot find NaN keys), so — unlike
// the float range filter — hull skipping needs no NaN-free proof.
func FilterFloatSetChunked(col FloatValued, cs *ChunkedSelection, values []float64, sum *ChunkSummary) *ChunkedSelection {
	if len(values) == 0 {
		return emptyLike(cs)
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
	return filterSegs(cs, verdict, func(seg Selection) Selection {
		return scanFloatSet(col, seg, want)
	})
}

// codeSetVerdict classifies a chunk against a wanted dictionary-code
// set using the column's presence summary: skip when the chunk holds
// none of the wanted codes, take when every distinct code it holds
// is wanted (so the whole segment passes through by reference), scan
// otherwise. Chunks whose sparse code list overflowed always scan.
func codeSetVerdict(sum *ChunkSummary, want map[uint32]struct{}) func(c int) chunkVerdict {
	if sum == nil || (sum.codeBits == nil && sum.codeList == nil) {
		return scanAlways
	}
	if sum.codeBits != nil {
		wantBits := make([]uint64, (sum.dictLen+63)/64)
		for code := range want {
			if int(code) < sum.dictLen {
				wantBits[code>>6] |= 1 << (code & 63)
			}
		}
		return func(c int) chunkVerdict {
			anyWanted, allWanted := false, true
			for i, present := range sum.codeBits[c] {
				if present&wantBits[i] != 0 {
					anyWanted = true
				}
				if present&^wantBits[i] != 0 {
					allWanted = false
				}
			}
			switch {
			case !anyWanted:
				return chunkSkip
			case allWanted:
				return chunkTake
			default:
				return chunkScan
			}
		}
	}
	return func(c int) chunkVerdict {
		if sum.codeOverflow[c] {
			return chunkScan
		}
		anyWanted, allWanted := false, true
		for _, code := range sum.codeList[c] {
			if _, ok := want[code]; ok {
				anyWanted = true
			} else {
				allWanted = false
			}
			if anyWanted && !allWanted {
				return chunkScan
			}
		}
		switch {
		case !anyWanted:
			return chunkSkip
		case allWanted:
			return chunkTake
		default:
			return chunkScan
		}
	}
}

// boolSetVerdict is codeSetVerdict for the two-value bool domain.
func boolSetVerdict(sum *ChunkSummary, wantTrue, wantFalse bool) func(c int) chunkVerdict {
	if sum == nil || sum.boolHasTrue == nil {
		return scanAlways
	}
	return func(c int) chunkVerdict {
		hasTrue, hasFalse := sum.boolHasTrue[c], sum.boolHasFalse[c]
		anyWanted := (wantTrue && hasTrue) || (wantFalse && hasFalse)
		allWanted := (!hasTrue || wantTrue) && (!hasFalse || wantFalse)
		switch {
		case !anyWanted:
			return chunkSkip
		case allWanted:
			return chunkTake
		default:
			return chunkScan
		}
	}
}

// FilterStringSetChunked narrows cs to rows whose string value is
// one of values, testing membership on dictionary codes. The nominal
// zone map prunes chunks holding no wanted code and passes chunks
// wholesale when every code they hold is wanted.
func FilterStringSetChunked(col *StringColumn, cs *ChunkedSelection, values []string, sum *ChunkSummary) *ChunkedSelection {
	if len(values) == 0 {
		return emptyLike(cs)
	}
	want := stringCodeSet(col, values)
	if len(want) == 0 {
		return emptyLike(cs)
	}
	codes := col.Codes()
	return filterSegs(cs, codeSetVerdict(sum, want), func(seg Selection) Selection {
		return scanCodeSet(codes, seg, want)
	})
}

// FilterStringRangeChunked narrows cs to rows whose string value
// lies in the lexicographic interval [lo, hi]. With a presence
// summary the range is resolved to the set of dictionary codes it
// covers — one pass over the dictionary, not the rows — which both
// turns the per-row test into a dense code probe and lets the same
// verdicts prune and pass chunks exactly like an explicit value set.
// Without one that can actually prune (pruning ablated, a
// summary-less caller, or a sparse summary every chunk of which
// overflowed) the per-row string comparison scan runs directly:
// paying O(dictionary) to build a code set no verdict will profit
// from would make narrow selections over high-cardinality columns
// *slower* than the scan.
func FilterStringRangeChunked(col *StringColumn, cs *ChunkedSelection, lo, hi string, loIncl, hiIncl bool, sum *ChunkSummary) *ChunkedSelection {
	if sum == nil || !sum.canPruneCodes() {
		return filterSegs(cs, scanAlways, func(seg Selection) Selection {
			return scanStringRange(col, seg, lo, hi, loIncl, hiIncl)
		})
	}
	want := stringRangeCodeSet(col, lo, hi, loIncl, hiIncl)
	if len(want) == 0 {
		return emptyLike(cs)
	}
	codes := col.Codes()
	return filterSegs(cs, codeSetVerdict(sum, want), func(seg Selection) Selection {
		return scanCodeSet(codes, seg, want)
	})
}

// FilterBoolSetChunked narrows cs to rows whose boolean value
// appears in values, skipping chunks that hold no wanted value and
// passing chunks every row of which must match.
func FilterBoolSetChunked(col *BoolColumn, cs *ChunkedSelection, values []bool, sum *ChunkSummary) *ChunkedSelection {
	wantTrue, wantFalse := boolWants(values)
	if !wantTrue && !wantFalse {
		return emptyLike(cs)
	}
	return filterSegs(cs, boolSetVerdict(sum, wantTrue, wantFalse), func(seg Selection) Selection {
		return scanBoolSet(col, seg, wantTrue, wantFalse)
	})
}
