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

func scanCodeSet(codes []uint32, part Selection, want codeSet) Selection {
	out := make(Selection, 0, len(part))
	for _, row := range part {
		if want.has(codes[row]) {
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
		if inStringRange(col.Str(int(row)), lo, hi, loIncl, hiIncl) {
			out = append(out, row)
		}
	}
	return out
}

// inStringRange reports whether v lies in the lexicographic interval
// [lo, hi] under the given inclusivity.
func inStringRange(v, lo, hi string, loIncl, hiIncl bool) bool {
	if v < lo || (v == lo && !loIncl) {
		return false
	}
	return v < hi || (v == hi && hiIncl)
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

// codeSet is a set of dictionary codes as a dense bitset: bit
// code&63 of words[code>>6], sized to the dictionary it was built
// against. A code at or past that size — one the dictionary minted
// after the set was built — is not a member, so a set stays valid
// while its column grows.
type codeSet struct {
	words []uint64
	n     int // members
}

func newCodeSet(dictLen int) codeSet {
	return codeSet{words: make([]uint64, (dictLen+63)/64)}
}

func (s *codeSet) add(code uint32) {
	w, bit := code>>6, uint64(1)<<(code&63)
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.n++
	}
}

func (s codeSet) has(code uint32) bool {
	w := int(code >> 6)
	return w < len(s.words) && s.words[w]&(1<<(code&63)) != 0
}

// word returns the i-th 64-code word, zero past the set's length.
func (s codeSet) word(i int) uint64 {
	if i < len(s.words) {
		return s.words[i]
	}
	return 0
}

// stringCodeSet resolves values to dictionary codes: one map lookup
// per distinct value, then the scans probe dense codes per row.
func stringCodeSet(col *StringColumn, values []string) codeSet {
	want := newCodeSet(col.Cardinality())
	for _, v := range values {
		if code, ok := col.CodeOf(v); ok {
			want.add(code)
		}
	}
	return want
}

// stringRangeCodeSet resolves a lexicographic interval to the set of
// dictionary codes whose value falls inside it: one string
// comparison per distinct value, so row scans and chunk verdicts
// both work on dense codes.
func stringRangeCodeSet(col *StringColumn, lo, hi string, loIncl, hiIncl bool) codeSet {
	want := newCodeSet(col.Cardinality())
	for code := 0; code < col.Cardinality(); code++ {
		if inStringRange(col.DictValue(uint32(code)), lo, hi, loIncl, hiIncl) {
			want.add(uint32(code))
		}
	}
	return want
}
