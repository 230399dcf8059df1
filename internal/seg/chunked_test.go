package seg

import (
	"math/rand"
	"reflect"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// vocQueries builds a spread of conjunctive queries over the VOC
// schema: nominal sets, numeric ranges with mixed inclusivity, and
// multi-constraint conjunctions.
func vocQueries() []sdl.Query {
	return []sdl.Query{
		sdl.MustQuery(sdl.SetC("type_of_boat", engine.String_("fluit"))),
		sdl.MustQuery(sdl.ClosedRange("tonnage", engine.Int(200), engine.Int(700))),
		sdl.MustQuery(
			sdl.SetC("type_of_boat", engine.String_("fluit"), engine.String_("jacht")),
			sdl.RangeC("tonnage", engine.Int(100), engine.Int(900), true, false),
		),
		sdl.MustQuery(
			sdl.RangeC("tonnage", engine.Int(0), engine.Int(450), true, true),
			sdl.SetC("departure_harbour", engine.String_("texel")),
		),
	}
}

// TestSelectChunkedMatchesAcrossLayouts is the evaluator-level
// equivalence property: the same query must produce the identical
// flat selection at every chunk width, including widths that leave
// most chunks empty and a partial final chunk.
func TestSelectChunkedMatchesAcrossLayouts(t *testing.T) {
	tab := dataset.VOC(3001, 5) // 3001: partial final chunk at every width
	reference := make(map[string]engine.Selection)
	for _, q := range vocQueries() {
		ev := NewEvaluator(tab) // default layout
		sel, err := ev.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		reference[q.Key()] = sel
	}
	for _, chunkRows := range []int{64, 448, 1 << 12} {
		tab := dataset.VOC(3001, 5)
		tab.SetChunkRows(chunkRows) // 448 normalizes up to 512
		ev := NewEvaluator(tab)
		for _, q := range vocQueries() {
			cs, err := ev.SelectChunked(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cs.Flat(), reference[q.Key()]) {
				t.Fatalf("chunkRows=%d: selection for %s diverged from default layout", chunkRows, q)
			}
			if cs.ChunkRows() != tab.ChunkRows() {
				t.Fatalf("selection carries chunkRows=%d, want %d", cs.ChunkRows(), tab.ChunkRows())
			}
		}
	}
}

// TestNarrowChunkedTouchesOnlyParentChunks pins the narrow-eval
// skipping: a parent confined to a few chunks must produce a child
// whose segments are empty wherever the parent's were.
func TestNarrowChunkedTouchesOnlyParentChunks(t *testing.T) {
	tab := dataset.VOC(4000, 7)
	tab.SetChunkRows(256)
	ev := NewEvaluator(tab)
	// A parent confined to the first chunk by construction.
	parentSel := engine.Selection{}
	for r := int32(0); r < 200; r++ {
		parentSel = append(parentSel, r)
	}
	parentCS := engine.ChunkSelection(parentSel, tab.NumRows(), tab.ChunkRows())
	parent := sdl.MustQuery(sdl.Any("tonnage"))
	c := sdl.ClosedRange("tonnage", engine.Int(0), engine.Int(10000))
	child := parent.WithConstraint(c)
	childCS, err := ev.NarrowChunked(parentCS, child, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < childCS.NumChunks(); i++ {
		if len(childCS.Seg(i)) != 0 {
			t.Fatalf("chunk %d has rows although the parent was confined to chunk 0", i)
		}
	}
	if childCS.Len() == 0 {
		t.Fatal("covering range should keep the whole parent")
	}
}

// TestCutMatchesAcrossChunkLayouts runs the full CUT primitive at
// several chunk widths and requires identical pieces and counts —
// the cut-point math must not see chunk boundaries.
func TestCutMatchesAcrossChunkLayouts(t *testing.T) {
	type cutResult struct {
		keys   []string
		counts []int
	}
	run := func(chunkRows int) cutResult {
		tab := dataset.VOC(2777, 3)
		if chunkRows > 0 {
			tab.SetChunkRows(chunkRows)
		}
		ev := NewEvaluator(tab)
		ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
		if err != nil {
			t.Fatal(err)
		}
		s, ok, err := InitialCut(ev, ctx, "tonnage", DefaultCutOptions())
		if err != nil || !ok {
			t.Fatalf("initial cut: %v ok=%v", err, ok)
		}
		s, err = Cut(ev, s, "type_of_boat", DefaultCutOptions())
		if err != nil {
			t.Fatal(err)
		}
		s, err = Cut(ev, s, "departure_harbour", CutOptions{Arity: 3})
		if err != nil {
			t.Fatal(err)
		}
		var res cutResult
		for i, q := range s.Queries {
			res.keys = append(res.keys, q.Key())
			res.counts = append(res.counts, s.Counts[i])
		}
		return res
	}
	want := run(0)
	for _, chunkRows := range []int{64, 1000, 1 << 13} {
		got := run(chunkRows)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunkRows=%d: cut result diverged\n got %+v\nwant %+v", chunkRows, got, want)
		}
	}
}

// TestPairMemoSharesSides pins the satellite reuse claim: with a
// memo in the options, repeated pairwise operator calls over the
// same segmentations stop re-fetching their selections — the
// cache-hit counter stays flat after the first call.
func TestPairMemoSharesSides(t *testing.T) {
	tab := dataset.VOC(2000, 9)
	ev := NewEvaluator(tab)
	m := liveMetrics(ev)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour")
	if err != nil {
		t.Fatal(err)
	}
	s1, ok, err := InitialCut(ev, ctx, "type_of_boat", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatalf("cut: %v", err)
	}
	s2, ok, err := InitialCut(ev, ctx, "tonnage", DefaultCutOptions())
	if err != nil || !ok {
		t.Fatalf("cut: %v", err)
	}
	memo := NewPairMemo()
	opt := PairOptions{Workers: 1, Memo: memo}
	base, err := IndepOpt(ev, s1, s2, opt)
	if err != nil {
		t.Fatal(err)
	}
	hitsAfterFirst := m.CacheHits.Value()
	// Product + CellCounts + Indep + ChiSquare over the same pair:
	// all sides come from the memo, no further selection lookups.
	if _, err := ProductOpt(ev, s1, s2, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := CellCountsOpt(ev, s1, s2, opt); err != nil {
		t.Fatal(err)
	}
	again, err := IndepOpt(ev, s1, s2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChiSquareIndependentOpt(ev, s1, s2, 0.05, opt); err != nil {
		t.Fatal(err)
	}
	if got := m.CacheHits.Value(); got != hitsAfterFirst {
		t.Fatalf("memoized operator calls still hit the selection cache: %d -> %d", hitsAfterFirst, got)
	}
	if again != base {
		t.Fatalf("memoized INDEP = %v, want %v", again, base)
	}
	// Without a memo the same calls do re-fetch selections.
	plain := PairOptions{Workers: 1}
	if _, err := IndepOpt(ev, s1, s2, plain); err != nil {
		t.Fatal(err)
	}
	if got := m.CacheHits.Value(); got == hitsAfterFirst {
		t.Fatal("memo-less operator call did not consult the selection cache (test premise broken)")
	}
}

// TestPairMemoMatchesUnmemoized proves the memo is purely a
// performance artifact: INDEP values with and without it agree on
// random segmentation pairs.
func TestPairMemoMatchesUnmemoized(t *testing.T) {
	tab := dataset.VOC(1500, 11)
	ev := NewEvaluator(tab)
	ctx, err := sdl.ContextOn(tab, "type_of_boat", "tonnage", "departure_harbour", "trip")
	if err != nil {
		t.Fatal(err)
	}
	attrs := []string{"type_of_boat", "tonnage", "departure_harbour", "trip"}
	var segs []*Segmentation
	for _, a := range attrs {
		s, ok, err := InitialCut(ev, ctx, a, DefaultCutOptions())
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			segs = append(segs, s)
		}
	}
	memo := NewPairMemo()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		i, j := rng.Intn(len(segs)), rng.Intn(len(segs))
		with, err := IndepOpt(ev, segs[i], segs[j], PairOptions{Workers: 2, Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		without, err := IndepOpt(ev, segs[i], segs[j], PairOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if with != without {
			t.Fatalf("INDEP(%d,%d) with memo %v != without %v", i, j, with, without)
		}
	}
}
