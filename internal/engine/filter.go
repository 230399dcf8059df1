package engine

// Range bounds for filters: lo/hi with independent inclusivity, the
// shape Definition 5 cuts produce ([min,med[ and [med,max]).
type IntRange struct {
	Lo, Hi         int64
	LoIncl, HiIncl bool
}

// Contains reports whether v falls inside the range.
func (r IntRange) Contains(v int64) bool {
	if v < r.Lo || (v == r.Lo && !r.LoIncl) {
		return false
	}
	if v > r.Hi || (v == r.Hi && !r.HiIncl) {
		return false
	}
	return true
}

// FloatRange is IntRange over float64. Note that Contains(NaN) is
// true — NaN fails both exclusion comparisons — so range filters
// keep NaN rows; the zone-map verdicts must honor the same
// convention.
type FloatRange struct {
	Lo, Hi         float64
	LoIncl, HiIncl bool
}

// Contains reports whether v falls inside the range.
func (r FloatRange) Contains(v float64) bool {
	if v < r.Lo || (v == r.Lo && !r.LoIncl) {
		return false
	}
	if v > r.Hi || (v == r.Hi && !r.HiIncl) {
		return false
	}
	return true
}

// The scan kernels below narrow one contiguous sub-selection by one
// typed predicate, with no per-row indirection. The chunked filters
// run them through filterSegs, one table chunk per task.

func scanIntRange(col IntValued, part Selection, r IntRange) Selection {
	out := make(Selection, 0, len(part))
	for _, row := range part {
		if r.Contains(col.Int64(int(row))) {
			out = append(out, row)
		}
	}
	return out
}

func scanFloatRange(col FloatValued, part Selection, r FloatRange) Selection {
	out := make(Selection, 0, len(part))
	for _, row := range part {
		if r.Contains(col.Float64(int(row))) {
			out = append(out, row)
		}
	}
	return out
}

func scanCodeSet(codes []uint32, part Selection, want map[uint32]struct{}) Selection {
	out := make(Selection, 0, len(part))
	for _, row := range part {
		if _, ok := want[codes[row]]; ok {
			out = append(out, row)
		}
	}
	return out
}

func scanIntSet(col IntValued, part Selection, want map[int64]struct{}) Selection {
	out := make(Selection, 0, len(part))
	for _, row := range part {
		if _, ok := want[col.Int64(int(row))]; ok {
			out = append(out, row)
		}
	}
	return out
}

func scanFloatSet(col FloatValued, part Selection, want map[float64]struct{}) Selection {
	out := make(Selection, 0, len(part))
	for _, row := range part {
		if _, ok := want[col.Float64(int(row))]; ok {
			out = append(out, row)
		}
	}
	return out
}

func scanStringRange(col *StringColumn, part Selection, lo, hi string, loIncl, hiIncl bool) Selection {
	out := make(Selection, 0, len(part))
	for _, row := range part {
		v := col.Str(int(row))
		if v < lo || (v == lo && !loIncl) {
			continue
		}
		if v > hi || (v == hi && !hiIncl) {
			continue
		}
		out = append(out, row)
	}
	return out
}

func scanBoolSet(col *BoolColumn, part Selection, wantTrue, wantFalse bool) Selection {
	out := make(Selection, 0, len(part))
	for _, row := range part {
		v := col.Bool(int(row))
		if (v && wantTrue) || (!v && wantFalse) {
			out = append(out, row)
		}
	}
	return out
}

// stringCodeSet resolves values to dictionary codes: one map lookup
// per distinct value, then the scans probe dense codes per row.
func stringCodeSet(col *StringColumn, values []string) map[uint32]struct{} {
	want := make(map[uint32]struct{}, len(values))
	for _, v := range values {
		if code, ok := col.CodeOf(v); ok {
			want[code] = struct{}{}
		}
	}
	return want
}

// stringRangeCodeSet resolves a lexicographic interval to the set of
// dictionary codes whose value falls inside it: one string
// comparison per distinct value, so row scans and chunk verdicts
// both work on dense codes.
func stringRangeCodeSet(col *StringColumn, lo, hi string, loIncl, hiIncl bool) map[uint32]struct{} {
	want := make(map[uint32]struct{})
	for code := 0; code < col.Cardinality(); code++ {
		v := col.DictValue(uint32(code))
		if v < lo || (v == lo && !loIncl) {
			continue
		}
		if v > hi || (v == hi && !hiIncl) {
			continue
		}
		want[uint32(code)] = struct{}{}
	}
	return want
}

// int64Set builds the membership set plus its hull [min, max] (for
// zone-map pruning). values must be non-empty.
func int64Set(values []int64) (want map[int64]struct{}, min, max int64) {
	want = make(map[int64]struct{}, len(values))
	min, max = values[0], values[0]
	for _, v := range values {
		want[v] = struct{}{}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return want, min, max
}

// float64Set is int64Set over floats. NaN values enter the map (as
// unreachable entries, matching no row — map lookups never find NaN
// keys) but are excluded from the hull.
func float64Set(values []float64) (want map[float64]struct{}, min, max float64) {
	want = make(map[float64]struct{}, len(values))
	first := true
	for _, v := range values {
		want[v] = struct{}{}
		if v != v { // NaN
			continue
		}
		if first {
			min, max, first = v, v, false
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if first { // all NaN: an empty hull that prunes nothing
		min, max = 0, 0
	}
	return want, min, max
}

// boolWants folds a bool set constraint into its two flags.
func boolWants(values []bool) (wantTrue, wantFalse bool) {
	for _, v := range values {
		if v {
			wantTrue = true
		} else {
			wantFalse = true
		}
	}
	return wantTrue, wantFalse
}
