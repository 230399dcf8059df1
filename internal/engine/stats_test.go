package engine

import (
	"reflect"
	"testing"

	"charles/internal/stats"
)

func TestGatherInt(t *testing.T) {
	col := NewIntColumn("v", []int64{10, 20, 30, 40})
	got := flatInts(GatherIntChunked(col, chunk3(Selection{1, 3}, 4)))
	if !reflect.DeepEqual(got, []int64{20, 40}) {
		t.Fatalf("GatherIntChunked = %v", got)
	}
}

func TestGatherFloat(t *testing.T) {
	col := NewFloatColumn("v", []float64{1.5, 2.5, 3.5, 4.5})
	var got []float64
	for _, ch := range GatherFloatChunked(col, chunk3(Selection{0, 2, 3}, 4)) {
		got = append(got, ch...)
	}
	if !reflect.DeepEqual(got, []float64{1.5, 3.5, 4.5}) {
		t.Fatalf("GatherFloatChunked = %v", got)
	}
}

func TestIntMinMax(t *testing.T) {
	col := NewIntColumn("v", []int64{5, -3, 9, 2})
	min, max, ok := IntMinMaxChunked(col, chunk3(AllRows(4), 4))
	if !ok || min != -3 || max != 9 {
		t.Fatalf("IntMinMaxChunked = %d %d %v", min, max, ok)
	}
	if _, _, ok := IntMinMaxChunked(col, chunk3(Selection{}, 4)); ok {
		t.Fatal("empty selection reported ok")
	}
	// Restricted selection sees only its rows.
	min, max, _ = IntMinMaxChunked(col, chunk3(Selection{0, 3}, 4))
	if min != 2 || max != 5 {
		t.Fatalf("restricted IntMinMaxChunked = %d %d", min, max)
	}
}

func TestFloatMinMax(t *testing.T) {
	col := NewFloatColumn("v", []float64{2.5, 0.5, 1.5})
	min, max, ok := FloatMinMaxChunked(col, chunk3(AllRows(3), 3))
	if !ok || min != 0.5 || max != 2.5 {
		t.Fatalf("FloatMinMaxChunked = %v %v %v", min, max, ok)
	}
}

func TestIntMedian(t *testing.T) {
	col := NewIntColumn("v", []int64{40, 10, 30, 20})
	med, ok := IntMedianChunked(col, chunk3(AllRows(4), 4))
	if !ok || med != 30 { // upper median of {10,20,30,40}
		t.Fatalf("IntMedianChunked = %d %v, want 30", med, ok)
	}
	if _, ok := IntMedianChunked(col, chunk3(Selection{}, 4)); ok {
		t.Fatal("median of empty selection reported ok")
	}
}

func TestFloatMedian(t *testing.T) {
	col := NewFloatColumn("v", []float64{1, 2, 3})
	med, ok := FloatMedianChunked(col, chunk3(AllRows(3), 3))
	if !ok || med != 2 {
		t.Fatalf("FloatMedianChunked = %v %v", med, ok)
	}
}

func TestIntCutPoints(t *testing.T) {
	vals := make([]int64, 99)
	for i := range vals {
		vals[i] = int64(i)
	}
	col := NewIntColumn("v", vals)
	points := IntCutPointsChunked(col, chunk3(AllRows(99), 99), 3)
	if len(points) != 2 || points[0] != 33 || points[1] != 66 {
		t.Fatalf("tertile points = %v, want [33 66]", points)
	}
	if points := IntCutPointsChunked(col, chunk3(Selection{}, 99), 3); points != nil {
		t.Fatalf("points on empty selection = %v", points)
	}
}

func TestStringValueCounts(t *testing.T) {
	col := NewStringColumn("h", []string{"a", "b", "a", "c", "a", "b"})
	vcs := StringValueCountsChunked(col, chunk3(AllRows(6), 6))
	got := map[string]int{}
	for _, vc := range vcs {
		got[vc.Value] = vc.Count
	}
	if got["a"] != 3 || got["b"] != 2 || got["c"] != 1 {
		t.Fatalf("counts = %v", got)
	}
	// Counts respect the selection.
	vcs = StringValueCountsChunked(col, chunk3(Selection{0, 1}, 6))
	if len(vcs) != 2 {
		t.Fatalf("restricted counts = %v", vcs)
	}
}

func TestBoolValueCounts(t *testing.T) {
	col := NewBoolColumn("armed", []bool{true, true, false, true})
	vcs := BoolValueCountsChunked(col, chunk3(AllRows(4), 4))
	if len(vcs) != 2 || vcs[0].Value != "false" || vcs[0].Count != 1 || vcs[1].Count != 3 {
		t.Fatalf("bool counts = %v", vcs)
	}
	vcs = BoolValueCountsChunked(col, chunk3(Selection{0}, 4))
	if len(vcs) != 1 || vcs[0].Value != "true" {
		t.Fatalf("restricted bool counts = %v", vcs)
	}
}

func TestNominalMedianPipeline(t *testing.T) {
	// End-to-end nominal split the way seg will drive it: counts,
	// frequency order, split point.
	col := NewStringColumn("h", []string{
		"bantam", "bantam", "bantam", "surat", "surat", "zeeland",
	})
	vcs := StringValueCountsChunked(col, chunk3(AllRows(6), 6))
	stats.OrderByFrequency(vcs)
	if vcs[0].Value != "bantam" {
		t.Fatalf("frequency order = %v", vcs)
	}
	k, ok := stats.NominalSplitPoint(vcs)
	if !ok || k != 1 { // {bantam} vs {surat, zeeland}: 3 vs 3
		t.Fatalf("split = %d %v, want 1 true", k, ok)
	}
}
