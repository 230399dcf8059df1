package seg

import (
	"fmt"
	"testing"

	"charles/internal/engine"
	"charles/internal/obs"
	"charles/internal/sdl"
)

func TestSelectConjunction(t *testing.T) {
	tab, ev := figure2Table(t)
	_ = tab
	q := sdl.MustQuery(
		sdl.SetC("type", engine.String_("fluit")),
		sdl.ClosedRange("tonnage", engine.Int(1500), engine.Int(3000)),
	)
	sel, err := ev.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 { // fluit rows with tonnage 1800, 2000
		t.Fatalf("selection = %v, want 2 rows", sel)
	}
	if !sel.IsSorted() {
		t.Fatal("selection not sorted")
	}
}

func TestSelectCaches(t *testing.T) {
	_, ev := figure2Table(t)
	m := liveMetrics(ev)
	q := sdl.MustQuery(sdl.SetC("type", engine.String_("jacht")))
	if _, err := ev.Select(q); err != nil {
		t.Fatal(err)
	}
	hits, evals := m.CacheHits.Value(), m.FullEvals.Value()
	if _, err := ev.Select(q); err != nil {
		t.Fatal(err)
	}
	if m.CacheHits.Value() != hits+1 {
		t.Fatalf("second select did not hit cache: hits %d -> %d", hits, m.CacheHits.Value())
	}
	if m.FullEvals.Value() != evals {
		t.Fatal("second select re-evaluated")
	}
}

// TestSelectCountsLookups pins that every lookup is accounted for —
// a miss as one full evaluation, a repeat as one cache hit — and
// that both forms of one query share a single cache entry.
func TestSelectCountsLookups(t *testing.T) {
	_, ev := figure2Table(t)
	m := liveMetrics(ev)
	q := sdl.MustQuery(sdl.SetC("type", engine.String_("jacht")))
	if _, err := ev.Select(q); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Select(q); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SelectBitmap(q); err != nil {
		t.Fatal(err)
	}
	if m.FullEvals.Value() != 1 || m.CacheHits.Value() != 2 {
		t.Fatalf("three lookups: full evals=%d hits=%d, want 1 and 2", m.FullEvals.Value(), m.CacheHits.Value())
	}
	if n := ev.CacheLen(); n != 1 {
		t.Fatalf("one query in two forms holds %d cache entries, want 1", n)
	}
}

func TestNarrowMatchesFullEval(t *testing.T) {
	tab, ev := figure2Table(t)
	_ = tab
	parent := sdl.MustQuery(sdl.SetC("type", engine.String_("fluit")))
	parentCS, err := ev.SelectChunked(parent)
	if err != nil {
		t.Fatal(err)
	}
	c := sdl.ClosedRange("tonnage", engine.Int(0), engine.Int(2000))
	child := parent.WithConstraint(c)
	narrowedCS, err := ev.NarrowChunked(parentCS, child, c)
	if err != nil {
		t.Fatal(err)
	}
	narrowed := narrowedCS.Flat()
	ev2 := NewEvaluator(tab)
	full, err := ev2.Select(child)
	if err != nil {
		t.Fatal(err)
	}
	if len(narrowed) != len(full) {
		t.Fatalf("narrow %v != full %v", narrowed, full)
	}
	for i := range narrowed {
		if narrowed[i] != full[i] {
			t.Fatalf("narrow %v != full %v", narrowed, full)
		}
	}
}

func TestSelectUnknownColumn(t *testing.T) {
	_, ev := figure2Table(t)
	q := sdl.MustQuery(sdl.ClosedRange("ghost", engine.Int(0), engine.Int(1)))
	if _, err := ev.Select(q); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestSelectRangeOnBoolRejected(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewBoolColumn("b", []bool{true, false}))
	ev := NewEvaluator(tab)
	q := sdl.MustQuery(sdl.RangeC("b", engine.Bool(false), engine.Bool(true), true, true))
	if _, err := ev.Select(q); err == nil {
		t.Fatal("range on bool accepted")
	}
}

func TestSelectStringRange(t *testing.T) {
	tab := engine.MustNewTable("t", engine.NewStringColumn("s", []string{"apple", "banana", "cherry"}))
	ev := NewEvaluator(tab)
	q := sdl.MustQuery(sdl.RangeC("s", engine.String_("b"), engine.String_("c"), true, false))
	sel, err := ev.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0] != 1 {
		t.Fatalf("string range selected %v", sel)
	}
}

func TestSelectIntSetAndFloatSet(t *testing.T) {
	tab := engine.MustNewTable("t",
		engine.NewIntColumn("i", []int64{1, 2, 3, 2}),
		engine.NewFloatColumn("f", []float64{1.5, 2.5, 3.5, 2.5}),
	)
	ev := NewEvaluator(tab)
	q := sdl.MustQuery(sdl.SetC("i", engine.Int(2)))
	sel, err := ev.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("int set selected %v", sel)
	}
	q = sdl.MustQuery(sdl.SetC("f", engine.Float(2.5), engine.Float(9.9)))
	sel, err = ev.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("float set selected %v", sel)
	}
}

// liveMetrics installs an EvalMetrics with live counters on ev and
// returns it, so a test reads the evaluator's activity off the same
// counters /metrics exports. Installing a fresh one starts the counts
// from zero.
func liveMetrics(ev *Evaluator) *EvalMetrics {
	m := &EvalMetrics{
		FullEvals: &obs.Counter{}, NarrowEvals: &obs.Counter{}, CacheHits: &obs.Counter{},
		CutPointCalcs: &obs.Counter{}, DeltaRefreshes: &obs.Counter{}, CutRefreshes: &obs.Counter{},
		CutCacheHits: &obs.Counter{}, PairMemoHits: &obs.Counter{}, PairMemoMisses: &obs.Counter{},
	}
	ev.SetEvalMetrics(m)
	return m
}

func TestCountersAndReset(t *testing.T) {
	_, ev := figure2Table(t)
	m := liveMetrics(ev)
	q := sdl.MustQuery(sdl.SetC("type", engine.String_("fluit")))
	if _, err := ev.Count(q); err != nil {
		t.Fatal(err)
	}
	if got := m.FullEvals.Value(); got != 1 {
		t.Fatalf("full evals = %d, want 1", got)
	}
	fresh := liveMetrics(ev)
	if _, err := ev.Count(q); err != nil {
		t.Fatal(err)
	}
	if fresh.FullEvals.Value() != 0 || fresh.CacheHits.Value() != 1 {
		t.Fatalf("fresh metrics: full evals %d, hits %d; want 0, 1", fresh.FullEvals.Value(), fresh.CacheHits.Value())
	}
	if m.CacheHits.Value() != 0 {
		t.Fatal("replaced metrics kept counting")
	}
}

func TestCacheLimitBoundsEntries(t *testing.T) {
	tab, ev := figure2Table(t)
	_ = tab
	const limit = 8
	ev.SetCacheLimit(limit)
	// Far more distinct queries than the limit allows.
	for lo := int64(0); lo < 200; lo++ {
		q := sdl.MustQuery(sdl.ClosedRange("tonnage", engine.Int(lo), engine.Int(lo+100)))
		if _, err := ev.Select(q); err != nil {
			t.Fatal(err)
		}
	}
	// Per-shard rounding allows at most ceil(limit/shards) per shard.
	if n := ev.CacheLen(); n > limit+cacheShards {
		t.Fatalf("cache holds %d entries, limit %d", n, limit)
	}
	// Cached queries still answer correctly after evictions.
	q := sdl.MustQuery(sdl.ClosedRange("tonnage", engine.Int(0), engine.Int(100)))
	sel, err := ev.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sel {
		if !sel.IsSorted() {
			t.Fatalf("row %d: unsorted selection after eviction", row)
		}
	}
}

// TestStoreAtLimitKeepsExistingKey is the regression test for the
// re-store eviction bug: overwriting a key that is already cached in
// a full shard must not evict an unrelated entry — the store does
// not grow the shard, so there is nothing to make room for. The old
// code evicted first and overwrote second, shrinking the cache by
// one on every re-store at the limit.
func TestStoreAtLimitKeepsExistingKey(t *testing.T) {
	tab, ev := figure2Table(t)
	sel := tab.AllChunked()
	// perShard = ceil(limit/shards) = 2.
	ev.SetCacheLimit(2 * cacheShards)
	// Find two keys that land in the same shard, then fill it.
	keyA := "key-a"
	shard := ev.shard(keyA)
	keyB := ""
	for i := 0; keyB == ""; i++ {
		k := fmt.Sprintf("key-b-%d", i)
		if ev.shard(k) == shard {
			keyB = k
		}
	}
	ent := cachedSel{cs: sel, stamp: tab.Stamp()}
	ev.store(keyA, ent)
	ev.store(keyB, ent)
	if len(shard.m) != 2 {
		t.Fatalf("shard holds %d entries after filling, want 2", len(shard.m))
	}
	// Re-store an existing key ten times: the shard must keep both.
	for i := 0; i < 10; i++ {
		ev.store(keyA, ent)
	}
	if _, ok := ev.cached(keyB); !ok {
		t.Fatal("re-storing an existing key evicted an unrelated entry")
	}
	if len(shard.m) != 2 {
		t.Fatalf("shard shrank to %d entries after re-stores, want 2", len(shard.m))
	}
	// A genuinely new key at the limit still evicts exactly one.
	keyC := ""
	for i := 0; keyC == ""; i++ {
		k := fmt.Sprintf("key-c-%d", i)
		if ev.shard(k) == shard {
			keyC = k
		}
	}
	ev.store(keyC, ent)
	if len(shard.m) != 2 {
		t.Fatalf("shard holds %d entries after eviction, want 2", len(shard.m))
	}
	if _, ok := ev.cached(keyC); !ok {
		t.Fatal("new key was not stored at the limit")
	}
}

// TestPackedSelectionMemoized pins pack-and-remember: a query cached
// as row ids is packed by its first SelectBitmap, and every repeat
// serves that identical (immutable) bitmap from the same entry —
// three lookups, one evaluation.
func TestPackedSelectionMemoized(t *testing.T) {
	tab, ev := figure2Table(t)
	m := liveMetrics(ev)
	q := sdl.MustQuery(sdl.SetC("type", engine.String_("fluit")))
	sel, err := ev.SelectChunked(q)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ev.SelectBitmap(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.SelectBitmap(q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("repeated SelectBitmap returned a fresh bitmap")
	}
	if a.Count() != sel.Len() || a.NumRows() != tab.NumRows() {
		t.Fatalf("packed bitmap shape %d/%d, want %d/%d", a.Count(), a.NumRows(), sel.Len(), tab.NumRows())
	}
	if lookups := m.FullEvals.Value() + m.CacheHits.Value(); m.FullEvals.Value() != 1 || lookups != 3 {
		t.Fatalf("full evals=%d lookups=%d, want 1 and 3", m.FullEvals.Value(), lookups)
	}
	if ent, ok := ev.cached(q.Key()); !ok || ent.cs != sel || ent.bm != a {
		t.Fatal("the entry does not hold both forms")
	}
}
