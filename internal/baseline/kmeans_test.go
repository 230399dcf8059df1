package baseline

import (
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
)

func TestKMeansSeparatesPlantedClusters(t *testing.T) {
	tab := dataset.GaussianMixture(1000, 2, 3, 5)
	res, err := KMeans(tab, tab.All(), []string{"x0", "x1"}, 3, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 || len(res.Assignment) != 1000 {
		t.Fatalf("shape: %d centers, %d assignments", len(res.Centers), len(res.Assignment))
	}
	// Compare against ground truth: each k-means cluster should be
	// dominated by one true label (purity > 0.8 overall).
	label := tab.MustColumn("label").(*engine.StringColumn)
	counts := map[int]map[string]int{}
	for i, c := range res.Assignment {
		if counts[c] == nil {
			counts[c] = map[string]int{}
		}
		counts[c][label.Str(i)]++
	}
	pure, total := 0, 0
	for _, byLabel := range counts {
		best, sum := 0, 0
		for _, n := range byLabel {
			if n > best {
				best = n
			}
			sum += n
		}
		pure += best
		total += sum
	}
	if float64(pure)/float64(total) < 0.8 {
		t.Fatalf("purity = %v", float64(pure)/float64(total))
	}
}

func TestKMeansErrors(t *testing.T) {
	tab := dataset.GaussianMixture(10, 2, 2, 1)
	if _, err := KMeans(tab, tab.All(), []string{"x0"}, 0, 10, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KMeans(tab, tab.All(), []string{"x0"}, 20, 10, 1); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, err := KMeans(tab, tab.All(), []string{"label"}, 2, 10, 1); err == nil {
		t.Fatal("nominal column accepted")
	}
	if _, err := KMeans(tab, tab.All(), []string{"ghost"}, 2, 10, 1); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestKMeansDeterministicUnderSeed(t *testing.T) {
	tab := dataset.GaussianMixture(500, 2, 3, 2)
	a, err := KMeans(tab, tab.All(), []string{"x0", "x1"}, 3, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(tab, tab.All(), []string{"x0", "x1"}, 3, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.WithinSS != b.WithinSS {
		t.Fatalf("not deterministic: %v vs %v", a.WithinSS, b.WithinSS)
	}
}

func TestSegmentationHomogeneity(t *testing.T) {
	tab := dataset.GaussianMixture(2000, 2, 2, 3)
	ev := seg.NewEvaluator(tab)
	ctx, err := sdl.ContextOn(tab, "x0", "x1", "label")
	if err != nil {
		t.Fatal(err)
	}
	// Splitting on the true label must give tighter segments than
	// the whole context (homogeneity well below 1).
	labelSeg, ok, err := seg.InitialCut(ev, ctx, "label", seg.DefaultCutOptions())
	if err != nil || !ok {
		t.Fatal(err)
	}
	h, err := SegmentationHomogeneity(ev, ctx, labelSeg, []string{"x0", "x1"})
	if err != nil {
		t.Fatal(err)
	}
	if h <= 0 || h >= 0.9 {
		t.Fatalf("label split homogeneity = %v, want well below 1", h)
	}
	// Non-float attrs are skipped; all-nominal attr list errors.
	if _, err := SegmentationHomogeneity(ev, ctx, labelSeg, []string{"label"}); err == nil {
		t.Fatal("all-nominal attr list accepted")
	}
}

func TestSegmentationHomogeneityRandomSplitNearOne(t *testing.T) {
	// A split on an unrelated uniform attribute should leave the
	// within-variance near the overall variance.
	tab := dataset.UniformInts(3000, 1, 1000, 9)
	vals := make([]float64, 3000)
	for i := range vals {
		vals[i] = float64(i%97) / 7
	}
	tab2 := engine.MustNewTable("t",
		tab.Column(0),
		engine.NewFloatColumn("f", vals),
	)
	ev := seg.NewEvaluator(tab2)
	ctx := sdl.ContextAll(tab2)
	s, ok, err := seg.InitialCut(ev, ctx, "u0", seg.DefaultCutOptions())
	if err != nil || !ok {
		t.Fatal(err)
	}
	h, err := SegmentationHomogeneity(ev, ctx, s, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.9 || h > 1.1 {
		t.Fatalf("unrelated split homogeneity = %v, want ≈1", h)
	}
}

func TestMeanVar(t *testing.T) {
	col := engine.NewFloatColumn("v", []float64{2, 4, 4, 4, 5, 5, 7, 9})
	mean, variance, ok := meanVar(col, engine.AllRows(8))
	if !ok || mean != 5 || variance != 4 {
		t.Fatalf("mean=%v var=%v ok=%v, want 5 4 true", mean, variance, ok)
	}
	if _, _, ok := meanVar(col, engine.Selection{}); ok {
		t.Fatal("empty selection reported ok")
	}
}
