package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

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

// codeSetOracle is the map form of a dictionary-code set: the
// membership test the code-set kernels are checked against.
type codeSetOracle map[uint32]struct{}

// oracleCodeSet resolves values to codes exactly like stringCodeSet,
// into a map.
func oracleCodeSet(col *StringColumn, values []string) codeSetOracle {
	want := codeSetOracle{}
	for _, v := range values {
		if code, ok := col.CodeOf(v); ok {
			want[code] = struct{}{}
		}
	}
	return want
}

// oracleVerdict classifies raw chunk c of tab against want from the
// chunk's rows themselves: skip when no row's code is wanted, take
// when every row's is, scan otherwise — or scan outright when the
// summary gave up on the chunk (a sparse code list that overflowed).
func oracleVerdict(tab *Table, codes []uint32, sum *ChunkSummary, c int, want codeSetOracle) chunkVerdict {
	if sum.codeList != nil && sum.codeOverflow[c] {
		return chunkScan
	}
	lo, hi := tab.ChunkBounds(c)
	anyWanted, allWanted := false, true
	for _, code := range codes[lo:hi] {
		if _, ok := want[code]; ok {
			anyWanted = true
		} else {
			allWanted = false
		}
	}
	return presenceVerdict(anyWanted, allWanted)
}

// checkCodeSetKernels runs the three code-set kernels — the chunk
// verdict, the vector scan and the fused bitmap kernel — over every
// chunk of cs and fails on any disagreement with the map oracle.
func checkCodeSetKernels(t testing.TB, tab *Table, col *StringColumn, cs *ChunkedSelection, want codeSet, oracle codeSetOracle) {
	t.Helper()
	if want.n != len(oracle) {
		t.Fatalf("code set has %d members, oracle %d", want.n, len(oracle))
	}
	codes := col.Codes()
	sum := tab.SummaryByName(col.Name())
	if sum == nil || (sum.codeBits == nil && sum.codeList == nil) {
		t.Fatal("string column has no code-presence summary")
	}
	verdict := codeSetVerdict(sum, want)
	bits := codeSetBits(codes, want)
	chunkRows := tab.ChunkRows()
	for c := 0; c < cs.NumChunks(); c++ {
		if got, exp := verdict(c), oracleVerdict(tab, codes, sum, c, oracle); got != exp {
			t.Fatalf("chunk %d: codeSetVerdict = %d, oracle %d", c, got, exp)
		}
		seg := cs.Seg(c)
		exp := naiveFilter(seg, func(row int) bool { _, ok := oracle[codes[row]]; return ok })
		if got := scanCodeSet(codes, seg, want); !slices.Equal(got, exp) {
			t.Fatalf("chunk %d: scanCodeSet = %v, oracle %v", c, got, exp)
		}
		words := make([]uint64, (chunkRows+63)/64)
		base := int32(c * chunkRows)
		n := bits(seg, words, base)
		expWords := make([]uint64, len(words))
		for _, row := range exp {
			local := row - base
			expWords[local>>6] |= 1 << (uint(local) & 63)
		}
		if n != len(exp) || !slices.Equal(words, expWords) {
			t.Fatalf("chunk %d: codeSetBits set %d bits %x, oracle %d bits %x", c, n, words, len(exp), expWords)
		}
	}
}

// codeTable builds a one-column string table over an explicit
// dictionary of dictLen values, whatever subset of codes the rows
// use, so the dictionary size — and with it the summary form and the
// code set's word count — is exactly dictLen.
func codeTable(t testing.TB, dictLen, chunkRows int, codes []uint32) (*Table, *StringColumn) {
	t.Helper()
	dict := make([]string, dictLen)
	for i := range dict {
		dict[i] = fmt.Sprintf("d%05d", i)
	}
	col, err := NewStringColumnFromDict("s", codes, dict)
	if err != nil {
		t.Fatal(err)
	}
	tab := MustNewTable("codes", col)
	tab.SetChunkRows(chunkRows)
	return tab, tab.MustColumn("s").(*StringColumn)
}

// growDictionary appends rows that mint fresh dictionary values
// (interleaved with existing ones), growing the column's dictionary
// past any code set built before the call.
func growDictionary(t testing.TB, tab *Table, col *StringColumn, rows int) {
	t.Helper()
	vals := make([][]Value, rows)
	for i := range vals {
		v := fmt.Sprintf("new%03d", i)
		if i%3 == 2 {
			v = col.DictValue(uint32(i % col.Cardinality()))
		}
		vals[i] = []Value{String_(v)}
	}
	if err := tab.AppendRows(vals...); err != nil {
		t.Fatal(err)
	}
}

// everyOther keeps every second selected row: a sub-selection whose
// segments the scan kernels see with gaps.
func everyOther(cs *ChunkedSelection) *ChunkedSelection {
	var sel Selection
	for i, row := range cs.Flat() {
		if i%2 == 0 {
			sel = append(sel, row)
		}
	}
	return ChunkSelection(sel, cs.NumRows(), cs.ChunkRows())
}

// TestCodeSetKernelsMatchMapOracle checks the dense dictionary-code
// set and its three kernels (codeSetVerdict, scanCodeSet,
// codeSetBits) against a map oracle over random dictionaries: dense
// and sparse summaries (overflowed chunks included), dictionary
// sizes off the 64-code word grid, the empty set, code 0, the last
// code, and a set built before AppendRows grew the dictionary.
func TestCodeSetKernelsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []struct {
		name      string
		dictLen   int
		rows      int
		chunkRows int
		clustered bool // chunks draw from narrow code bands
		sparse    bool // expect the code-list summary
		overflow  bool // expect some chunk past the list cap
	}{
		{"dense-1", 1, 300, 64, false, false, false},
		{"dense-63", 63, 700, 64, true, false, false},
		{"dense-65", 65, 700, 128, false, false, false},
		{"dense-200", 200, 1000, 64, true, false, false},
		{"dense-max", denseCodeDictMax, 2000, 256, true, false, false},
		{"sparse", denseCodeDictMax + 37, 6000, 64, true, true, false},
		{"sparse-overflow", denseCodeDictMax + 37, 6000, 512, false, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			codes := make([]uint32, tc.rows)
			for i := range codes {
				if tc.clustered {
					band := i / tc.chunkRows * 7
					codes[i] = uint32((band + rng.Intn(16)) % tc.dictLen)
				} else {
					codes[i] = uint32(rng.Intn(tc.dictLen))
				}
			}
			tab, col := codeTable(t, tc.dictLen, tc.chunkRows, codes)
			sum := tab.SummaryByName("s")
			if (sum.codeList != nil) != tc.sparse {
				t.Fatalf("sparse summary = %v, want %v", sum.codeList != nil, tc.sparse)
			}
			if tc.overflow != slices.Contains(sum.codeOverflow, true) {
				t.Fatalf("overflowed chunks present = %v, want %v", !tc.overflow, tc.overflow)
			}
			last := col.DictValue(uint32(tc.dictLen - 1))
			lo0, hi0 := tab.ChunkBounds(0)
			chunk0 := make([]string, 0, hi0-lo0)
			for r := lo0; r < hi0; r++ {
				chunk0 = append(chunk0, col.Str(r))
			}
			random := []string{"absent"}
			for code := 0; code < tc.dictLen; code++ {
				if rng.Intn(3) == 0 {
					random = append(random, col.DictValue(uint32(code)))
				}
			}
			all := make([]string, tc.dictLen)
			for code := range all {
				all[code] = col.DictValue(uint32(code))
			}
			sets := []struct {
				name   string
				values []string
			}{
				{"empty", nil},
				{"code0", []string{col.DictValue(0)}},
				{"last", []string{last}},
				{"first+last", []string{col.DictValue(0), last}},
				{"chunk0", chunk0},
				{"random", random},
				{"all", all},
			}
			for _, set := range sets {
				want, oracle := stringCodeSet(col, set.values), oracleCodeSet(col, set.values)
				t.Run(set.name+"/all-rows", func(t *testing.T) {
					checkCodeSetKernels(t, tab, col, tab.AllChunked(), want, oracle)
				})
				t.Run(set.name+"/every-other", func(t *testing.T) {
					checkCodeSetKernels(t, tab, col, everyOther(tab.AllChunked()), want, oracle)
				})
			}
			if !tc.overflow && codeSetVerdict(sum, stringCodeSet(col, chunk0))(0) != chunkTake {
				t.Fatal("chunk 0's own values do not take chunk 0")
			}

			// A set built before the dictionary grew: the new codes lie
			// at or past its length and must read as unwanted.
			values := []string{col.DictValue(0), last}
			want, oracle := stringCodeSet(col, values), oracleCodeSet(col, values)
			growDictionary(t, tab, col, 70)
			if col.Cardinality() <= tc.dictLen {
				t.Fatalf("dictionary did not grow: %d values", col.Cardinality())
			}
			checkCodeSetKernels(t, tab, col, tab.AllChunked(), want, oracle)
			rangeSet := stringRangeCodeSet(col, "d00000", "new050", true, false)
			rangeOracle := codeSetOracle{}
			for code := 0; code < col.Cardinality(); code++ {
				if v := col.DictValue(uint32(code)); v >= "d00000" && v < "new050" {
					rangeOracle[uint32(code)] = struct{}{}
				}
			}
			checkCodeSetKernels(t, tab, col, tab.AllChunked(), rangeSet, rangeOracle)
		})
	}
}
