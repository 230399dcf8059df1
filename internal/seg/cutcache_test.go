package seg

import (
	"fmt"
	"testing"

	"charles/internal/engine"
	"charles/internal/sdl"
)

// cutCacheTable is large enough (≥ cutStateMinRows) that cut entries
// retain refreshable state, chunked small enough that mutations dirty
// a strict subset of chunks.
func cutCacheTable(t *testing.T) *engine.Table {
	t.Helper()
	const rows = 2 * cutStateMinRows
	ints := make([]int64, rows)
	strs := make([]string, rows)
	for i := range ints {
		ints[i] = int64(i % 1000)
		strs[i] = [4]string{"fluit", "jacht", "pinas", "galjoot"}[i%4]
	}
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("v", ints),
		engine.NewStringColumn("s", strs),
	)
	tab.SetChunkRows(1024)
	return tab
}

// childKeys renders a cut result in comparable form.
func childKeys(t *testing.T, ev *Evaluator, q sdl.Query, attr string) []string {
	t.Helper()
	children, err := CutQuery(ev, q, attr, DefaultCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(children))
	for i, c := range children {
		keys[i] = c.Key()
	}
	return keys
}

// TestCutCacheVersionEqualHit pins that a repeated cut on an
// unmutated table is served from the cache: identical pieces, no new
// cut-point computation.
func TestCutCacheVersionEqualHit(t *testing.T) {
	tab := cutCacheTable(t)
	ev := NewEvaluator(tab)
	m := liveMetrics(ev)
	ctx := sdl.ContextAll(tab)
	first := childKeys(t, ev, ctx, "v")
	calcs := m.CutPointCalcs.Value()
	if calcs == 0 {
		t.Fatal("priming cut computed no points")
	}
	second := childKeys(t, ev, ctx, "v")
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cached cut diverged: %v vs %v", first, second)
	}
	if got := m.CutPointCalcs.Value(); got != calcs {
		t.Fatalf("version-equal hit recomputed points: %d -> %d", calcs, got)
	}
	if got := m.CutRefreshes.Value(); got != 0 {
		t.Fatalf("unmutated table took %d cut refreshes", got)
	}
}

// TestCutCacheRefreshAfterMutation pins the incremental path: after
// mutations that move the median and grow the string dictionary, a
// warm evaluator's cuts go through the splice refresh (CutRefreshes
// advances) and match a cold evaluator's cuts exactly.
func TestCutCacheRefreshAfterMutation(t *testing.T) {
	tab := cutCacheTable(t)
	ev := NewEvaluator(tab)
	m := liveMetrics(ev)
	ctx := sdl.ContextAll(tab)
	childKeys(t, ev, ctx, "v")
	childKeys(t, ev, ctx, "s")

	// Shift the upper half of one chunk far right (moves the median)
	// and append rows with a brand-new string value (grows the dict).
	sel := make(engine.Selection, 512)
	vals := make([]engine.Value, len(sel))
	for i := range sel {
		sel[i] = int32(3*1024 + i)
		vals[i] = engine.Int(int64(100000 + i))
	}
	if err := tab.UpdateRows(sel, "v", vals); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := tab.AppendRows([]engine.Value{engine.Int(7), engine.String_("kof")}); err != nil {
			t.Fatal(err)
		}
	}

	cold := NewEvaluator(tab)
	coldM := liveMetrics(cold)
	for _, attr := range []string{"v", "s"} {
		warmKeys := childKeys(t, ev, ctx, attr)
		coldKeys := childKeys(t, cold, ctx, attr)
		if fmt.Sprint(warmKeys) != fmt.Sprint(coldKeys) {
			t.Fatalf("%s: warm refresh diverged from cold cut:\nwarm %v\ncold %v", attr, warmKeys, coldKeys)
		}
	}
	if got := m.CutRefreshes.Value(); got < 2 {
		t.Fatalf("CutRefreshes = %d, want ≥2 (int and string cuts)", got)
	}
	if got := coldM.CutRefreshes.Value(); got != 0 {
		t.Fatalf("cold evaluator took %d cut refreshes", got)
	}
}

// TestCutCacheWidthChangeRecomputes pins the bail-out: a re-shard
// makes stamps chunk-incomparable, so the stale entry recomputes in
// full — and still matches a cold evaluator.
func TestCutCacheWidthChangeRecomputes(t *testing.T) {
	tab := cutCacheTable(t)
	ev := NewEvaluator(tab)
	m := liveMetrics(ev)
	ctx := sdl.ContextAll(tab)
	childKeys(t, ev, ctx, "v")
	if err := tab.AppendRows([]engine.Value{engine.Int(999999), engine.String_("kof")}); err != nil {
		t.Fatal(err)
	}
	tab.SetChunkRows(2048)
	warmKeys := childKeys(t, ev, ctx, "v")
	coldKeys := childKeys(t, NewEvaluator(tab), ctx, "v")
	if fmt.Sprint(warmKeys) != fmt.Sprint(coldKeys) {
		t.Fatalf("post-reshard cut diverged:\nwarm %v\ncold %v", warmKeys, coldKeys)
	}
	if got := m.CutRefreshes.Value(); got != 0 {
		t.Fatalf("chunk-incomparable stamps took the refresh path (%d)", got)
	}
}

// TestCutQueryOneLookup pins the cut path's cost on a caching
// evaluator: each CutQuery fetches its query's selection exactly once
// (one lookup: a full evaluation or a cache hit), a repeat cut is
// served from the cut cache without recomputing points, and the
// pieces match a cold evaluator's.
func TestCutQueryOneLookup(t *testing.T) {
	tab := cutCacheTable(t)
	ev := NewEvaluator(tab)
	m := liveMetrics(ev)
	ctx := sdl.ContextAll(tab)
	for _, attr := range []string{"v", "s"} {
		lookups := m.FullEvals.Value() + m.CacheHits.Value()
		first := childKeys(t, ev, ctx, attr)
		calcs := m.CutPointCalcs.Value()
		second := childKeys(t, ev, ctx, attr)
		if got := m.FullEvals.Value() + m.CacheHits.Value() - lookups; got != 2 {
			t.Fatalf("%s: two cuts cost %d selection lookups, want 2", attr, got)
		}
		if m.CutPointCalcs.Value() != calcs || m.CutCacheHits.Value() == 0 {
			t.Fatalf("%s: repeat cut recomputed its points", attr)
		}
		cold := childKeys(t, NewEvaluator(tab), ctx, attr)
		if fmt.Sprint(first) != fmt.Sprint(cold) || fmt.Sprint(second) != fmt.Sprint(cold) {
			t.Fatalf("%s: cached and cold cuts diverged:\n%v\n%v\n%v", attr, first, second, cold)
		}
	}
}
