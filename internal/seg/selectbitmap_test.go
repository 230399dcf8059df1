package seg

import (
	"reflect"
	"testing"

	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
)

// selectBitmapQueries builds a spread of query shapes over VOC: the
// unconstrained context, single nominal and numeric predicates, and
// a multi-constraint conjunction (whose final predicate is the one
// the fused path scans).
func selectBitmapQueries(t *testing.T, tab *engine.Table) []sdl.Query {
	t.Helper()
	ctx := sdl.ContextAll(tab)
	qString := ctx.WithConstraint(sdl.SetC("type_of_boat", engine.String_("fluit"), engine.String_("jacht")))
	qRange := ctx.WithConstraint(sdl.RangeC("tonnage", engine.Int(100), engine.Int(700), true, false))
	qConj := qRange.WithConstraint(sdl.SetC("departure_harbour", engine.String_("Texel")))
	qEmpty := ctx.WithConstraint(sdl.SetC("type_of_boat", engine.String_("no-such-boat")))
	return []sdl.Query{ctx, qString, qRange, qConj, qEmpty}
}

// TestSelectBitmapMatchesPacked pins the fused evaluation tier to
// the pack-a-cached-selection tier: for every query shape,
// SelectBitmap on a cold evaluator (fused scan) and on a warm one
// (cache hits) must both equal packing the chunked selection, bit
// for bit.
func TestSelectBitmapMatchesPacked(t *testing.T) {
	tab := dataset.VOC(3000, 5)
	ref := NewEvaluator(tab)
	for _, q := range selectBitmapQueries(t, tab) {
		cs, err := ref.SelectChunked(q)
		if err != nil {
			t.Fatal(err)
		}
		want := engine.NewBitmapChunked(cs)

		cold := NewEvaluator(tab)
		fused, err := cold.SelectBitmap(q) // miss on both caches: fused scan
		if err != nil {
			t.Fatal(err)
		}
		if fused.Count() != want.Count() || !reflect.DeepEqual(fused.Selection(), want.Selection()) {
			t.Fatalf("%s: fused bitmap differs from packed selection", q)
		}
		if ent, _ := cold.cached(q.Key()); q.NumConstraints() > 0 && ent.cs != nil {
			t.Fatalf("%s: the fused miss materialized row ids", q)
		}
		hit, err := cold.SelectBitmap(q) // bitmap cache hit
		if err != nil {
			t.Fatal(err)
		}
		if hit != fused {
			t.Fatalf("%s: repeated SelectBitmap did not serve the cached bitmap", q)
		}

		warm := NewEvaluator(tab)
		if _, err := warm.SelectChunked(q); err != nil { // selection cached, bitmap not
			t.Fatal(err)
		}
		packed, err := warm.SelectBitmap(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(packed.Selection(), want.Selection()) {
			t.Fatalf("%s: pack-from-selection tier differs", q)
		}

	}
}

// TestSelectBitmapErrors mirrors the vector path's error contract.
func TestSelectBitmapErrors(t *testing.T) {
	tab := dataset.VOC(500, 5)
	ev := NewEvaluator(tab)
	bad := sdl.ContextAll(tab).WithConstraint(sdl.SetC("ghost", engine.String_("x")))
	if _, err := ev.SelectBitmap(bad); err == nil {
		t.Fatal("SelectBitmap on unknown column did not error")
	}
}

// TestStaleEntryRefreshesEveryForm pins the one-entry cache across a
// mutation: queries held as both forms, as a bitmap only and as row
// ids only go stale when rows are appended into one chunk, and the
// next SelectBitmap and SelectChunked must both equal a cold
// evaluator's — reached through chunk-granular refreshes, not full
// re-evaluations.
func TestStaleEntryRefreshesEveryForm(t *testing.T) {
	const rows = 3000 // chunk 2 of 1024-row chunks is partly filled
	ints := make([]int64, rows)
	strs := make([]string, rows)
	for i := range ints {
		ints[i] = int64(i % 500)
		strs[i] = [3]string{"fluit", "jacht", "pinas"}[i%3]
	}
	tab := engine.MustNewTable("t", engine.NewIntColumn("v", ints), engine.NewStringColumn("s", strs))
	tab.SetChunkRows(1024)
	ev := NewEvaluator(tab)
	m := liveMetrics(ev)
	ctx := sdl.ContextAll(tab)
	both := ctx.WithConstraint(sdl.RangeC("v", engine.Int(100), engine.Int(400), true, false)).
		WithConstraint(sdl.SetC("s", engine.String_("fluit")))
	bitmapOnly := ctx.WithConstraint(sdl.SetC("s", engine.String_("jacht")))
	rowsOnly := ctx.WithConstraint(sdl.RangeC("v", engine.Int(0), engine.Int(50), true, true))
	if _, err := ev.SelectChunked(both); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SelectBitmap(both); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SelectBitmap(bitmapOnly); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SelectChunked(rowsOnly); err != nil {
		t.Fatal(err)
	}
	if n := ev.CacheLen(); n != 3 {
		t.Fatalf("three queries hold %d cache entries, want 3", n)
	}
	var add [][]engine.Value
	for i := 0; i < 20; i++ {
		add = append(add, []engine.Value{engine.Int(int64(150 + i)), engine.String_([3]string{"fluit", "jacht", "pinas"}[i%3])})
	}
	if err := tab.AppendRows(add...); err != nil {
		t.Fatal(err)
	}
	full := m.FullEvals.Value()
	cold := NewEvaluator(tab)
	for _, q := range []sdl.Query{both, bitmapOnly, rowsOnly} {
		bm, err := ev.SelectBitmap(q)
		if err != nil {
			t.Fatal(err)
		}
		wantBM, err := cold.SelectBitmap(q)
		if err != nil {
			t.Fatal(err)
		}
		if bm.NumRows() != tab.NumRows() || bm.Count() != wantBM.Count() || !reflect.DeepEqual(bm.Selection(), wantBM.Selection()) {
			t.Fatalf("%s: refreshed bitmap differs from a cold evaluator's", q)
		}
		cs, err := ev.SelectChunked(q)
		if err != nil {
			t.Fatal(err)
		}
		wantCS, err := cold.SelectChunked(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cs.Flat(), wantCS.Flat()) {
			t.Fatalf("%s: refreshed row ids differ from a cold evaluator's", q)
		}
	}
	if m.DeltaRefreshes.Value() == 0 {
		t.Fatal("no stale entry took the chunk-granular refresh")
	}
	// Only the bitmap-only entry has to evaluate again, for the row
	// ids it cannot give back.
	if got := m.FullEvals.Value() - full; got != 1 {
		t.Fatalf("stale lookups cost %d full evaluations, want 1", got)
	}
}
