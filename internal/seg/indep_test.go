package seg

import (
	"fmt"
	"sync"
	"testing"

	"charles/internal/engine"
	"charles/internal/sdl"
)

// pairFixture builds two multi-segment segmentations over a 4096-row
// table plus a hand-built third whose segments straddle the bitmap
// density crossover: one dense majority segment and two sparse tail
// segments, so the density rule builds a mixed bitmap×vector side.
func pairFixture(t testing.TB) (*Evaluator, *Segmentation, *Segmentation, *Segmentation) {
	const n = 4096
	xs := make([]int64, n)
	ys := make([]int64, n)
	zs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i % 16)
		ys[i] = int64((i / 3) % 11)
		switch {
		case i%409 == 0: // ~10 rows: density ≈ 1/409, well under 1/64
			zs[i] = 1
		case i%487 == 1: // ~8 rows
			zs[i] = 2
		default:
			zs[i] = 0
		}
	}
	tab := engine.MustNewTable("pairs",
		engine.NewIntColumn("x", xs),
		engine.NewIntColumn("y", ys),
		engine.NewIntColumn("z", zs),
	)
	ev := NewEvaluator(tab)
	ctx, err := sdl.ContextOn(tab, "x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultCutOptions()
	opt.Arity = 4
	s1, ok, err := InitialCut(ev, ctx, "x", opt)
	if err != nil || !ok {
		t.Fatalf("InitialCut(x): %v ok=%v", err, ok)
	}
	s2, ok, err := InitialCut(ev, ctx, "y", opt)
	if err != nil || !ok {
		t.Fatalf("InitialCut(y): %v ok=%v", err, ok)
	}
	s3 := &Segmentation{CutAttrs: []string{"z"}}
	for v := int64(0); v < 3; v++ {
		q := ctx.WithConstraint(sdl.SetC("z", engine.Int(v)))
		count, err := ev.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		s3.Queries = append(s3.Queries, q)
		s3.Counts = append(s3.Counts, count)
	}
	return ev, s1, s2, s3
}

// pairGrid is the worker sweep every equivalence test runs over.
func pairGrid() []PairOptions {
	var out []PairOptions
	for _, workers := range []int{1, 2, 4, 8} {
		out = append(out, PairOptions{Workers: workers})
	}
	return out
}

// rowMatches is the row-at-a-time reference for R(Q) over the
// fixture's int columns: the row's value tested against every
// constraint straight from the SDL definitions, with no engine
// kernel, cache, chunk or bitmap involved.
func rowMatches(t testing.TB, tab *engine.Table, q sdl.Query, row int) bool {
	t.Helper()
	for _, c := range q.Constraints() {
		if c.IsAny() {
			continue
		}
		col, ok := tab.ColumnByName(c.Attr)
		if !ok {
			t.Fatalf("oracle: no column %q", c.Attr)
		}
		v := col.(engine.IntValued).Int64(row)
		switch c.Kind {
		case sdl.KindRange:
			lo, hi := c.Range.Lo.AsInt(), c.Range.Hi.AsInt()
			if v < lo || v > hi || (v == lo && !c.Range.LoIncl) || (v == hi && !c.Range.HiIncl) {
				return false
			}
		case sdl.KindSet:
			in := false
			for _, w := range c.Set {
				in = in || w.AsInt() == v
			}
			if !in {
				return false
			}
		default:
			t.Fatalf("oracle: constraint kind %v", c.Kind)
		}
	}
	return true
}

// oracleCells is the contingency table computed row at a time.
func oracleCells(t testing.TB, tab *engine.Table, s1, s2 *Segmentation) [][]int {
	t.Helper()
	cells := make([][]int, len(s1.Queries))
	for i := range cells {
		cells[i] = make([]int, len(s2.Queries))
	}
	for row := 0; row < tab.NumRows(); row++ {
		for i, q1 := range s1.Queries {
			if !rowMatches(t, tab, q1, row) {
				continue
			}
			for j, q2 := range s2.Queries {
				if rowMatches(t, tab, q2, row) {
					cells[i][j]++
				}
			}
		}
	}
	return cells
}

// sideAs builds a pair side with segment i bitmap-packed when
// packed(i), a row-id vector otherwise — the representation choice
// buildSide's density rule makes, forced.
func sideAs(t testing.TB, ev *Evaluator, s *Segmentation, packed func(i int) bool) *pairSide {
	t.Helper()
	side := &pairSide{sels: make([]engine.Selection, len(s.Queries)), bms: make([]*engine.Bitmap, len(s.Queries))}
	for i, q := range s.Queries {
		if packed(i) {
			bm, err := ev.SelectBitmap(q)
			if err != nil {
				t.Fatal(err)
			}
			side.bms[i] = bm
			continue
		}
		cs, err := ev.SelectChunked(q)
		if err != nil {
			t.Fatal(err)
		}
		side.sels[i] = cs.Flat()
	}
	return side
}

// TestCellCountMatchesRowOracle checks every branch of cellCount —
// bitmap×bitmap, bitmap×vector, vector×bitmap, vector×vector — on
// the same two segmentations built as all-bitmap, all-vector and
// mixed sides, against the row-at-a-time oracle. It also pins that
// the density rule really builds a mixed side from the fixture, so
// the advisor's own path crosses representations.
func TestCellCountMatchesRowOracle(t *testing.T) {
	ev, s1, s2, s3 := pairFixture(t)
	forms := map[string]func(int) bool{
		"bitmap": func(int) bool { return true },
		"vector": func(int) bool { return false },
		"mixed":  func(i int) bool { return i%2 == 0 },
	}
	branches := map[[2]bool]int{}
	for _, pair := range [][2]*Segmentation{{s1, s2}, {s1, s3}, {s3, s2}} {
		want := oracleCells(t, ev.Table(), pair[0], pair[1])
		for aName, aForm := range forms {
			for bName, bForm := range forms {
				a, b := sideAs(t, ev, pair[0], aForm), sideAs(t, ev, pair[1], bForm)
				for i := range want {
					for j := range want[i] {
						branches[[2]bool{a.bms[i] != nil, b.bms[j] != nil}]++
						if got := cellCount(a, i, b, j); got != want[i][j] {
							t.Fatalf("%s×%s: cell[%d][%d] = %d, oracle %d", aName, bName, i, j, got, want[i][j])
						}
					}
				}
			}
		}
	}
	if len(branches) != 4 {
		t.Fatalf("exercised %d of the 4 cellCount branches", len(branches))
	}
	side, err := buildSide(ev, s3, PairOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var packed, vectors int
	for i := range side.bms {
		if side.bms[i] != nil {
			packed++
		} else if side.sels[i] != nil {
			vectors++
		}
	}
	if packed == 0 || vectors == 0 {
		t.Fatalf("density rule built %d bitmaps and %d vectors for the mixed fixture, want both", packed, vectors)
	}
}

// TestCellCountsParallelMatchesSequential pins the contingency
// table cell-for-cell against the row-at-a-time oracle at every
// worker count. Run with -race, this also
// exercises the parallel cell loop for data races.
func TestCellCountsParallelMatchesSequential(t *testing.T) {
	ev, s1, s2, s3 := pairFixture(t)
	pairs := []struct {
		name string
		a, b *Segmentation
	}{
		{"dense×dense", s1, s2},
		{"dense×mixed", s1, s3},
		{"mixed×dense", s3, s2},
	}
	for _, pair := range pairs {
		want := oracleCells(t, ev.Table(), pair.a, pair.b)
		if len(want) < 2 || len(want[0]) < 2 {
			t.Fatalf("%s: table %dx%d is too small to be meaningful", pair.name, len(want), len(want[0]))
		}
		for _, opt := range pairGrid() {
			got, err := CellCountsOpt(ev, pair.a, pair.b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %+v: %d rows, want %d", pair.name, opt, len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("%s %+v: cell[%d][%d] = %d, want %d",
							pair.name, opt, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestProductParallelMatchesSequential pins that the parallel
// product merges in (i, j) order: queries and counts are identical
// to the sequential nested loop at every width.
func TestProductParallelMatchesSequential(t *testing.T) {
	ev, s1, _, s3 := pairFixture(t)
	want, err := ProductOpt(ev, s1, s3, PairOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.Depth() < 4 {
		t.Fatalf("product depth %d is too small to be meaningful", want.Depth())
	}
	for _, opt := range pairGrid() {
		got, err := ProductOpt(ev, s1, s3, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key() != want.Key() {
			t.Fatalf("%+v: product queries differ:\n got %s\nwant %s", opt, got.Key(), want.Key())
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("%+v: count[%d] = %d, want %d", opt, i, got.Counts[i], want.Counts[i])
			}
		}
	}
}

// TestIndepAndChiSquareInvariantAcrossOptions pins exact float
// equality of INDEP (counts are integers, so entropy inputs are
// identical) and agreement of the chi-squared stopping rule.
func TestIndepAndChiSquareInvariantAcrossOptions(t *testing.T) {
	ev, s1, s2, s3 := pairFixture(t)
	for _, pair := range [][2]*Segmentation{{s1, s2}, {s1, s3}} {
		want, err := IndepOpt(ev, pair[0], pair[1], PairOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if oracle := IndepFromCells(oracleCells(t, ev.Table(), pair[0], pair[1])); want != oracle {
			t.Fatalf("INDEP = %v, row oracle %v", want, oracle)
		}
		wantChi, err := ChiSquareIndependentOpt(ev, pair[0], pair[1], 0.05, PairOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range pairGrid() {
			got, err := IndepOpt(ev, pair[0], pair[1], opt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%+v: INDEP = %v, want exactly %v", opt, got, want)
			}
			gotChi, err := ChiSquareIndependentOpt(ev, pair[0], pair[1], 0.05, opt)
			if err != nil {
				t.Fatal(err)
			}
			if gotChi != wantChi {
				t.Fatalf("%+v: chi-squared verdict %v, want %v", opt, gotChi, wantChi)
			}
		}
	}
}

// TestCellCountsConcurrentCallers drives the parallel cell loop from
// many goroutines sharing one evaluator — the multi-session shape —
// under -race.
func TestCellCountsConcurrentCallers(t *testing.T) {
	ev, s1, s2, s3 := pairFixture(t)
	want := oracleCells(t, ev.Table(), s1, s2)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := PairOptions{Workers: 1 + g%4}
			got, err := CellCountsOpt(ev, s1, s2, opt)
			if err != nil {
				errs <- err
				return
			}
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						errs <- fmt.Errorf("goroutine %d: cell[%d][%d] = %d, want %d", g, i, j, got[i][j], want[i][j])
						return
					}
				}
			}
			if _, err := ProductOpt(ev, s1, s3, opt); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
