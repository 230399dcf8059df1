package engine

import (
	"testing"
	"testing/quick"
)

func TestIntRangeContains(t *testing.T) {
	r := IntRange{Lo: 10, Hi: 20, LoIncl: true, HiIncl: false} // [10, 20)
	cases := map[int64]bool{9: false, 10: true, 15: true, 19: true, 20: false, 21: false}
	for v, want := range cases {
		if r.Contains(v) != want {
			t.Errorf("[10,20).Contains(%d) = %v, want %v", v, !want, want)
		}
	}
	closed := IntRange{Lo: 10, Hi: 20, LoIncl: true, HiIncl: true}
	if !closed.Contains(20) {
		t.Error("[10,20].Contains(20) = false")
	}
	open := IntRange{Lo: 10, Hi: 20, LoIncl: false, HiIncl: false}
	if open.Contains(10) || open.Contains(20) {
		t.Error("(10,20) contains an endpoint")
	}
}

func TestFloatRangeContains(t *testing.T) {
	r := FloatRange{Lo: 1.5, Hi: 2.5, LoIncl: true, HiIncl: false}
	if !r.Contains(1.5) || r.Contains(2.5) || !r.Contains(2.0) || r.Contains(1.4) {
		t.Error("FloatRange.Contains broken")
	}
}

func TestFilterIntRange(t *testing.T) {
	col := NewIntColumn("tonnage", []int64{100, 200, 300, 400, 500})
	sel := chunk3(AllRows(5), 5)
	got := FilterIntRangeChunked(col, sel, IntRange{Lo: 200, Hi: 400, LoIncl: true, HiIncl: false}, nil).Flat()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("FilterIntRangeChunked = %v, want [1 2]", got)
	}
	// Filtering a narrowed selection only looks at its rows.
	got = FilterIntRangeChunked(col, chunk3(Selection{0, 4}, 5), IntRange{Lo: 0, Hi: 1000, LoIncl: true, HiIncl: true}, nil).Flat()
	if len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("FilterIntRangeChunked on subset = %v, want [0 4]", got)
	}
}

func TestFilterFloatRange(t *testing.T) {
	col := NewFloatColumn("speed", []float64{1, 2, 3, 4})
	got := FilterFloatRangeChunked(col, chunk3(AllRows(4), 4), FloatRange{Lo: 2, Hi: 3, LoIncl: true, HiIncl: true}, nil).Flat()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("FilterFloatRangeChunked = %v", got)
	}
}

func TestFilterStringSet(t *testing.T) {
	col := NewStringColumn("harbour", []string{"bantam", "surat", "zeeland", "bantam", "surat"})
	all := chunk3(AllRows(5), 5)
	got := FilterStringSetChunked(col, all, []string{"bantam", "zeeland"}, nil).Flat()
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("FilterStringSetChunked = %v, want [0 2 3]", got)
	}
	if got := FilterStringSetChunked(col, all, nil, nil); got.Len() != 0 {
		t.Fatalf("empty set selected %v", got.Flat())
	}
	if got := FilterStringSetChunked(col, all, []string{"amsterdam"}, nil); got.Len() != 0 {
		t.Fatalf("unknown value selected %v", got.Flat())
	}
}

func TestFilterBoolSet(t *testing.T) {
	col := NewBoolColumn("armed", []bool{true, false, true, false})
	all := chunk3(AllRows(4), 4)
	if got := FilterBoolSetChunked(col, all, []bool{true}, nil).Flat(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("FilterBoolSetChunked(true) = %v", got)
	}
	if got := FilterBoolSetChunked(col, all, []bool{true, false}, nil); got.Len() != 4 {
		t.Fatalf("FilterBoolSetChunked(both) = %v", got.Flat())
	}
	if got := FilterBoolSetChunked(col, all, nil, nil); got.Len() != 0 {
		t.Fatalf("FilterBoolSetChunked(none) = %v", got.Flat())
	}
}

func TestFilterPreservesSortedProperty(t *testing.T) {
	col := NewIntColumn("v", func() []int64 {
		vals := make([]int64, 500)
		for i := range vals {
			vals[i] = int64(i * 7 % 101)
		}
		return vals
	}())
	all := ChunkSelection(AllRows(500), 500, 64)
	f := func(lo, hi uint8) bool {
		l, h := int64(lo), int64(hi)
		if l > h {
			l, h = h, l
		}
		got := FilterIntRangeChunked(col, all, IntRange{Lo: l, Hi: h, LoIncl: true, HiIncl: true}, nil).Flat()
		return got.IsSorted() || len(got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterMatchesNaiveScanProperty(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7, 5, 2, 8, 5, 0}
	col := NewIntColumn("v", vals)
	f := func(lo, hi uint8) bool {
		l, h := int64(lo%12), int64(hi%12)
		if l > h {
			l, h = h, l
		}
		r := IntRange{Lo: l, Hi: h, LoIncl: true, HiIncl: false}
		got := FilterIntRangeChunked(col, chunk3(AllRows(len(vals)), len(vals)), r, nil).Flat()
		want := Selection{}
		for i, v := range vals {
			if v >= l && v < h {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
