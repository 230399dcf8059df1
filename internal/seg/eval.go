// Package seg implements segmentations (Definition 3) and everything
// that operates on them: an evaluator that turns SDL queries into
// row selections with caching, the three primitives CUT, COMPOSE and
// PRODUCT of Section 4.1, and the quality metrics of Section 3 —
// entropy, simplicity, breadth — plus the INDEP dependence quotient
// of Proposition 1.
package seg

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"charles/internal/engine"
	"charles/internal/obs"
	"charles/internal/sdl"
)

// EvalMetrics is the evaluator's instrumentation: nil-safe obs
// counters of how often work was reused versus recomputed, the one
// source /metrics and the tests both read. Cache misses are the
// evaluations themselves — FullEvals and NarrowEvals count exactly
// the lookups that missed. The default hook (all-nil fields) records
// nothing and costs one atomic load.
type EvalMetrics struct {
	// FullEvals counts constraint-by-constraint query evaluations.
	FullEvals *obs.Counter
	// NarrowEvals counts incremental child evaluations (filtering a
	// parent's selection by one new constraint), the cheap path cuts
	// take.
	NarrowEvals *obs.Counter
	// CacheHits counts selections served from the query cache.
	CacheHits *obs.Counter
	// CutPointCalcs counts median/quantile computations, the
	// operation Section 5.1 calls the vertical-scalability
	// bottleneck.
	CutPointCalcs *obs.Counter
	// DeltaRefreshes counts cached selections brought up to date by
	// re-evaluating only the mutation-dirtied chunks and splicing
	// them into the cached clean segments — the incremental-advise
	// path, neither a full eval nor a plain hit.
	DeltaRefreshes *obs.Counter
	// CutRefreshes counts cached cut points brought up to date the
	// same way: dirty chunks re-gathered and re-sorted (or
	// recounted), clean chunks' sorted runs and count vectors reused.
	CutRefreshes *obs.Counter
	// CutCacheHits counts cut-point sets served straight from the cut
	// cache without recomputation.
	CutCacheHits *obs.Counter
	// PairMemoHits / PairMemoMisses count pairwise-operand sides
	// served from (or built into) a PairMemo.
	PairMemoHits   *obs.Counter
	PairMemoMisses *obs.Counter
}

// cacheShards is the number of independent lock stripes of the
// selection cache. 32 keeps contention negligible for any realistic
// worker count while the per-shard maps stay dense.
const cacheShards = 32

// cachedSel is one selection cache entry: the query's selection in
// either form or both — chunked row ids (cs), the word-packed bitmap
// the pairwise operators count with (bm) — plus the table epoch stamp
// at which every form it holds is exact. The stamp is what keeps a
// cache correct across table mutation: equal versions mean the entry
// is exact, and a moved version tells the evaluator precisely which
// chunks to re-evaluate (DirtyVs) before serving it again. Never
// cache a bare selection: without its stamp a stale entry is
// indistinguishable from a fresh one.
type cachedSel struct {
	cs    *engine.ChunkedSelection
	bm    *engine.Bitmap
	stamp *engine.EpochStamp
}

// cacheShard is one lock stripe of the selection cache.
type cacheShard struct {
	mu sync.RWMutex
	m  map[string]cachedSel
}

// cacheSeed keys the shard hash; shared by all evaluators so shard
// assignment is stable within a process.
var cacheSeed = maphash.MakeSeed()

// Evaluator binds SDL queries to a table and caches the resulting
// selections by canonical query string, implementing the reuse
// opportunity Section 5.1 points out ("the calculations ... can be
// reused from one iteration to the next"). Selections are evaluated
// and cached chunk-at-a-time over the table's row-range layout:
// every predicate narrows the per-chunk segments independently
// across the scan worker pool, zone maps skip chunks a range cannot
// match, and narrow (parent→child) evaluations touch only the chunks
// where the parent selection has rows. One cache entry per query
// holds whichever forms were asked for — row ids, bitmap or both —
// and a mutation refreshes each held form over the dirty chunks
// only. The cache is sharded behind fine-grained reader/writer locks
// and the metrics are atomic, so one Evaluator safely serves many
// goroutines — the foundation of the parallel advisor core and the
// multi-session server.
type Evaluator struct {
	tab    *engine.Table
	shards [cacheShards]cacheShard
	// cutMu guards cuts, the cut-point cache (cutcache.go). Cut
	// entries are far fewer and far larger than selections — sorted
	// value runs, not row ids — so one stripe suffices.
	cutMu sync.RWMutex
	cuts  map[string]cachedCut
	// zonePruning gates the zone-map verdicts (numeric bounds and
	// nominal presence alike). On by default; the off position is the
	// equivalence ablation — output must be byte-identical either
	// way, only chunks scanned may differ.
	zonePruning atomic.Bool
	// identity is the lazily built chunked all-rows selection every
	// full evaluation starts from; building it once per evaluator
	// keeps cold full evaluations from each allocating an
	// |table|-sized identity vector.
	identity atomic.Pointer[engine.ChunkedSelection]
	// limit bounds the total cache entries (0 = unbounded).
	// Long-lived shared evaluators — the multi-session server — set
	// it so user-supplied contexts cannot grow memory without bound.
	limit atomic.Int64

	// em is the installed EvalMetrics hook; always non-nil (zero
	// value = no-op), swapped atomically by SetEvalMetrics.
	em atomic.Pointer[EvalMetrics]
}

// NewEvaluator returns a caching evaluator over t.
func NewEvaluator(t *engine.Table) *Evaluator {
	e := &Evaluator{tab: t, cuts: make(map[string]cachedCut)}
	for i := range e.shards {
		e.shards[i].m = make(map[string]cachedSel)
	}
	e.zonePruning.Store(true)
	e.em.Store(&EvalMetrics{})
	return e
}

// SetEvalMetrics installs the instrumentation hook; nil restores the
// no-op default. Hook counters only ever accumulate — they never
// influence evaluation — so installing one cannot change results.
func (e *Evaluator) SetEvalMetrics(m *EvalMetrics) {
	if m == nil {
		m = &EvalMetrics{}
	}
	e.em.Store(m)
}

// The count* helpers bump the installed hook's counters. All are
// alloc-free: a pointer load and an atomic add.
func (e *Evaluator) countFullEval()     { e.em.Load().FullEvals.Inc() }
func (e *Evaluator) countNarrowEval()   { e.em.Load().NarrowEvals.Inc() }
func (e *Evaluator) countCacheHit()     { e.em.Load().CacheHits.Inc() }
func (e *Evaluator) countCutPointCalc() { e.em.Load().CutPointCalcs.Inc() }
func (e *Evaluator) countDeltaRefresh() { e.em.Load().DeltaRefreshes.Inc() }
func (e *Evaluator) countCutRefresh()   { e.em.Load().CutRefreshes.Inc() }
func (e *Evaluator) countCutCacheHit()  { e.em.Load().CutCacheHits.Inc() }
func (e *Evaluator) countPairMemoHit()  { e.em.Load().PairMemoHits.Inc() }
func (e *Evaluator) countPairMemoMiss() { e.em.Load().PairMemoMisses.Inc() }

// SetZonePruning toggles zone-map chunk pruning (numeric min/max and
// nominal presence verdicts). Pruning never changes results — only
// which chunks are scanned — so the off position exists for the
// equivalence property tests and for measuring the pruning win.
func (e *Evaluator) SetZonePruning(on bool) { e.zonePruning.Store(on) }

// Table returns the relation the evaluator is bound to.
func (e *Evaluator) Table() *engine.Table { return e.tab }

// allRows returns the shared chunked identity selection, rebuilding
// it when the table was re-sharded — or grew — since it was built.
func (e *Evaluator) allRows() *engine.ChunkedSelection {
	if cs := e.identity.Load(); cs != nil && cs.ChunkRows() == e.tab.ChunkRows() && cs.NumRows() == e.tab.NumRows() {
		return cs
	}
	cs := e.tab.AllChunked()
	e.identity.Store(cs)
	return cs
}

// SetCacheLimit bounds the number of cached selections (one entry
// per query, whichever forms it holds); at the limit an arbitrary
// entry per shard is evicted to make room. n <= 0 means unbounded
// (the default, right for one-shot advisory runs and the paper
// experiments).
func (e *Evaluator) SetCacheLimit(n int) {
	if n < 0 {
		n = 0
	}
	e.limit.Store(int64(n))
}

// CacheLen returns the number of cached selections.
func (e *Evaluator) CacheLen() int {
	n := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// shard returns the lock stripe responsible for key.
func (e *Evaluator) shard(key string) *cacheShard {
	return &e.shards[maphash.String(cacheSeed, key)%cacheShards]
}

// cached looks key up in its shard. The caller must check the
// entry's stamp against the table's before serving it.
func (e *Evaluator) cached(key string) (cachedSel, bool) {
	s := e.shard(key)
	s.mu.RLock()
	ent, ok := s.m[key]
	s.mu.RUnlock()
	return ent, ok
}

// store records key → ent. An entry already cached under the very
// same stamp lends ent the forms ent lacks, so concurrent callers
// asking for different forms of one query build one two-form entry.
// Concurrent evaluators may compute the same form twice; the results
// are identical, so last write wins and both callers' values stay
// valid (selections and bitmaps are immutable by contract). Over the
// cache limit, one arbitrary entry of the shard makes room —
// random-replacement is crude but keeps the hot path lock-cheap and
// bounds memory. Overwriting a key that is already present never
// evicts: the store does not grow the shard, so there is nothing to
// make room for (evicting anyway would shrink the cache by one on
// every re-store at the limit).
func (e *Evaluator) store(key string, ent cachedSel) {
	perShard := 0
	if limit := e.limit.Load(); limit > 0 {
		perShard = int((limit + cacheShards - 1) / cacheShards)
	}
	s := e.shard(key)
	s.mu.Lock()
	old, exists := s.m[key]
	if exists && old.stamp == ent.stamp {
		if ent.cs == nil {
			ent.cs = old.cs
		}
		if ent.bm == nil {
			ent.bm = old.bm
		}
	}
	if !exists && perShard > 0 && len(s.m) >= perShard {
		//lint:deterministic random-replacement eviction is deliberately arbitrary: cache contents affect reuse, never results
		for k := range s.m {
			delete(s.m, k)
			break
		}
	}
	s.m[key] = ent
	s.mu.Unlock()
}

// Select returns the sorted row selection R(Q) as a flat vector —
// the lazily materialized view of the chunked evaluation. The
// returned selection must not be mutated.
func (e *Evaluator) Select(q sdl.Query) (engine.Selection, error) {
	cs, err := e.SelectChunked(q)
	if err != nil {
		return nil, err
	}
	return cs.Flat(), nil
}

// SelectChunked returns R(Q) sharded by the table's row-range
// chunks. Results are cached under the query's canonical key. The
// returned selection must not be mutated.
func (e *Evaluator) SelectChunked(q sdl.Query) (*engine.ChunkedSelection, error) {
	ent, err := e.lookup(q, false)
	return ent.cs, err
}

// SelectBitmap returns R(Q) word-packed, the form the dense side of
// the pairwise operators consumes. A cached bitmap is served
// directly; a cached row-id selection is packed once and the bitmap
// remembered beside it. Only when the cache holds neither does it
// evaluate — and then the final predicate runs as a fused
// filter→bitmap scan (engine.Filter*ChunkedBitmap) that writes the
// bitmap words straight from the typed comparison loop, never
// materializing the row-id selection it would otherwise build and
// immediately discard. Bitmaps inherit the table's chunk layout —
// chunks with no selected rows are never allocated. The returned
// bitmap must not be mutated.
func (e *Evaluator) SelectBitmap(q sdl.Query) (*engine.Bitmap, error) {
	ent, err := e.lookup(q, true)
	return ent.bm, err
}

// lookup returns q's cache entry holding the requested form (the
// bitmap when packed, the row ids otherwise), evaluating on a miss.
// An entry that can serve the form — it holds it, or holds the row
// ids a bitmap packs from — is served at the current version, or
// refreshed over the dirty chunks when stale. An entry holding only
// a bitmap cannot give row ids back; a row-id request re-evaluates,
// replacing it (or joining it, when the stamps are the same).
func (e *Evaluator) lookup(q sdl.Query, packed bool) (cachedSel, error) {
	key := q.Key()
	cur := e.tab.Stamp()
	if ent, ok := e.cached(key); ok && (packed || ent.cs != nil) {
		if ent.stamp.Version() == cur.Version() {
			e.countCacheHit()
		} else {
			ent, ok = e.refresh(q, key, ent, cur)
		}
		if ok {
			if packed && ent.bm == nil {
				ent.bm = engine.NewBitmapChunked(ent.cs)
				e.store(key, ent)
			}
			return ent, nil
		}
	}
	cs, bm, err := e.run(q, e.allRows(), packed)
	if err != nil {
		return cachedSel{}, err
	}
	if packed && bm == nil {
		bm = engine.NewBitmapChunked(cs)
	}
	e.countFullEval()
	ent := cachedSel{cs: cs, bm: bm, stamp: cur}
	e.store(key, ent)
	return ent, nil
}

// dirtyChunks decides whether a stale cache entry qualifies for a
// chunk-granular refresh against stamp cur: the stamps must be
// chunk-comparable and every form the entry holds must structurally
// match the stamp it claims to be from and the current layout.
// Anything else — a re-shard, a shrink, a foreign layout — returns
// nil and the caller re-evaluates in full.
func dirtyChunks(old cachedSel, cur *engine.EpochStamp) []bool {
	if old.cs != nil && (old.cs.NumRows() != old.stamp.NumRows() || old.cs.ChunkRows() != cur.ChunkRows()) {
		return nil
	}
	if old.bm != nil && (old.bm.NumRows() != old.stamp.NumRows() || old.bm.ChunkRows() != cur.ChunkRows()) {
		return nil
	}
	dirty, ok := cur.DirtyVs(old.stamp)
	if !ok {
		return nil
	}
	return dirty
}

// refresh brings a stale entry up to stamp cur by running q's
// constraint chain over only the dirty chunks — the partial
// identity's empty clean segments are skipped by every filter
// kernel, so the work is proportional to the mutated rows — and
// splicing the result into every form the entry holds. A bitmap-only
// entry re-evaluates through the fused chain. This is sound because
// SDL constraints are per-row predicates: R(Q) restricted to a chunk
// depends on that chunk's rows alone, so a clean chunk's cached
// segment and words are still exact.
func (e *Evaluator) refresh(q sdl.Query, key string, old cachedSel, cur *engine.EpochStamp) (cachedSel, bool) {
	dirty := dirtyChunks(old, cur)
	if dirty == nil {
		return cachedSel{}, false
	}
	cs, bm, err := e.run(q, engine.PartialIdentity(cur.NumRows(), cur.ChunkRows(), dirty), old.cs == nil)
	if err != nil {
		return cachedSel{}, false
	}
	return e.splice(key, old, cs, bm, dirty, cur), true
}

// splice merges a dirty-chunk re-evaluation — its row ids cs, or its
// bitmap bm alone — into every form old holds, packing the dirty
// chunks' words from cs when the entry holds a bitmap but the
// re-evaluation produced row ids, and stores the result at cur.
func (e *Evaluator) splice(key string, old cachedSel, cs *engine.ChunkedSelection, bm *engine.Bitmap, dirty []bool, cur *engine.EpochStamp) cachedSel {
	ent := cachedSel{stamp: cur}
	if old.cs != nil {
		ent.cs = engine.SpliceChunked(old.cs, cs, dirty)
	}
	if old.bm != nil {
		if bm == nil {
			bm = engine.NewBitmapChunked(cs)
		}
		ent.bm = engine.SpliceBitmap(old.bm, bm, dirty)
	}
	e.countDeltaRefresh()
	e.store(key, ent)
	return ent
}

// run evaluates q's constraint chain starting from the selection
// from: the all-rows identity for a full evaluation, a partial
// identity over the dirty chunks for a refresh. With fuse set, the
// last predicate writes its bitmap directly and the row ids it would
// have produced are never materialized (cs is nil). An unconstrained
// query returns from itself and no bitmap.
func (e *Evaluator) run(q sdl.Query, from *engine.ChunkedSelection, fuse bool) (cs *engine.ChunkedSelection, bm *engine.Bitmap, err error) {
	cons := q.Constraints()
	last := -1
	for i, c := range cons {
		if !c.IsAny() {
			last = i
		}
	}
	if last < 0 {
		return from, nil, nil
	}
	cs = from
	for _, c := range cons[:last] {
		if cs, _, err = e.applyConstraint(cs, c, false); err != nil {
			return nil, nil, err
		}
	}
	return e.applyConstraint(cs, cons[last], fuse)
}

// Count returns |R(Q)|.
func (e *Evaluator) Count(q sdl.Query) (int, error) {
	cs, err := e.SelectChunked(q)
	if err != nil {
		return 0, err
	}
	return cs.Len(), nil
}

// NarrowChunked filters a parent query's chunked selection by one
// additional (or refined) constraint and caches the result under the
// child query's key. It is the incremental path CUT takes: the
// child's extent is a subset of the parent's, so only the changed
// predicate is applied — and only over the chunks where the parent
// has rows, since empty parent segments are skipped outright.
func (e *Evaluator) NarrowChunked(parentCS *engine.ChunkedSelection, child sdl.Query, c sdl.Constraint) (*engine.ChunkedSelection, error) {
	key := child.Key()
	cur := e.tab.Stamp()
	if ent, ok := e.cached(key); ok && ent.cs != nil {
		if ent.stamp.Version() == cur.Version() {
			e.countCacheHit()
			return ent.cs, nil
		}
		// Stale after mutation: parentCS is the child's current
		// parent selection, so re-filtering just its dirty-chunk
		// segments and splicing reproduces the child exactly —
		// cheaper than refresh's full constraint chain.
		if dirty := dirtyChunks(ent, cur); dirty != nil &&
			parentCS.NumRows() == cur.NumRows() && parentCS.ChunkRows() == cur.ChunkRows() {
			fresh, _, err := e.applyConstraint(engine.RestrictChunked(parentCS, dirty), c, false)
			if err != nil {
				return nil, err
			}
			return e.splice(key, ent, fresh, nil, dirty, cur).cs, nil
		}
	}
	cs, _, err := e.applyConstraint(parentCS, c, false)
	if err != nil {
		return nil, err
	}
	e.countNarrowEval()
	e.store(key, cachedSel{cs: cs, stamp: cur})
	return cs, nil
}

// resolveConstraint prepares one predicate application: it takes a
// consistent layout snapshot, re-chunks a selection cached under an
// older layout (zone maps index the snapshot layout's chunks, so a
// verdict must never see mismatched addressing), resolves the
// column, and fetches its zone map when pruning is on.
func (e *Evaluator) resolveConstraint(cs *engine.ChunkedSelection, attr string) (*engine.ChunkedSelection, engine.Column, *engine.ChunkSummary, error) {
	// One layout snapshot per constraint: the selection's chunking
	// and the zone map consulted for it must describe the same
	// layout, even while another advisor concurrently re-shards the
	// table.
	layout := e.tab.Layout()
	if cs.ChunkRows() != layout.ChunkRows() {
		// The selection was built (and possibly cached) under an
		// older layout — the table has been re-sharded since. The
		// flat row ids are layout-independent, making this a pure
		// re-addressing.
		cs = engine.ChunkSelection(cs.Flat(), e.tab.NumRows(), layout.ChunkRows())
	}
	col, ok := e.tab.ColumnByName(attr)
	if !ok {
		return nil, nil, nil, fmt.Errorf("seg: no column %q in table %q", attr, e.tab.Name())
	}
	var sum *engine.ChunkSummary
	if e.zonePruning.Load() {
		sum = layout.SummaryByName(attr)
	}
	return cs, col, sum, nil
}

// literals converts a set constraint's values to one column type.
func literals[T any](vals []engine.Value, as func(engine.Value) T) []T {
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = as(v)
	}
	return out
}

// applyConstraint dispatches one predicate to the engine's typed
// chunked column filters, handing every predicate the column's zone
// map so provably disjoint chunks are skipped and provably covered
// ones pass through untouched — numeric bounds for ranges, nominal
// presence sets for string/bool predicates. The SDL literals are
// converted once; fuse picks the output form: the narrowed row ids,
// or the bitmap written straight from the same kernel
// (Filter*ChunkedBitmap). A KindAny constraint returns cs unchanged.
func (e *Evaluator) applyConstraint(cs *engine.ChunkedSelection, c sdl.Constraint, fuse bool) (*engine.ChunkedSelection, *engine.Bitmap, error) {
	if c.IsAny() {
		return cs, nil, nil
	}
	cs, col, sum, err := e.resolveConstraint(cs, c.Attr)
	if err != nil {
		return nil, nil, err
	}
	r := c.Range
	switch col := col.(type) {
	case *engine.StringColumn:
		switch c.Kind {
		case sdl.KindSet:
			vals := literals(c.Set, engine.Value.AsString)
			if fuse {
				return nil, engine.FilterStringSetChunkedBitmap(col, cs, vals, sum), nil
			}
			return engine.FilterStringSetChunked(col, cs, vals, sum), nil, nil
		case sdl.KindRange:
			lo, hi := r.Lo.AsString(), r.Hi.AsString()
			if fuse {
				return nil, engine.FilterStringRangeChunkedBitmap(col, cs, lo, hi, r.LoIncl, r.HiIncl, sum), nil
			}
			return engine.FilterStringRangeChunked(col, cs, lo, hi, r.LoIncl, r.HiIncl, sum), nil, nil
		}
	case *engine.BoolColumn:
		if c.Kind != sdl.KindSet {
			return nil, nil, fmt.Errorf("seg: %s: range constraint on bool column", c.Attr)
		}
		vals := literals(c.Set, engine.Value.AsBool)
		if fuse {
			return nil, engine.FilterBoolSetChunkedBitmap(col, cs, vals, sum), nil
		}
		return engine.FilterBoolSetChunked(col, cs, vals, sum), nil, nil
	case *engine.FloatColumn:
		switch c.Kind {
		case sdl.KindRange:
			fr := engine.FloatRange{Lo: r.Lo.AsFloat(), Hi: r.Hi.AsFloat(), LoIncl: r.LoIncl, HiIncl: r.HiIncl}
			if fuse {
				return nil, engine.FilterFloatRangeChunkedBitmap(col, cs, fr, sum), nil
			}
			return engine.FilterFloatRangeChunked(col, cs, fr, sum), nil, nil
		case sdl.KindSet:
			vals := literals(c.Set, engine.Value.AsFloat)
			if fuse {
				return nil, engine.FilterFloatSetChunkedBitmap(col, cs, vals, sum), nil
			}
			return engine.FilterFloatSetChunked(col, cs, vals, sum), nil, nil
		}
	case engine.IntValued: // IntColumn and DateColumn
		switch c.Kind {
		case sdl.KindRange:
			ir := engine.IntRange{Lo: r.Lo.AsInt(), Hi: r.Hi.AsInt(), LoIncl: r.LoIncl, HiIncl: r.HiIncl}
			if fuse {
				return nil, engine.FilterIntRangeChunkedBitmap(col, cs, ir, sum), nil
			}
			return engine.FilterIntRangeChunked(col, cs, ir, sum), nil, nil
		case sdl.KindSet:
			vals := literals(c.Set, engine.Value.AsInt)
			if fuse {
				return nil, engine.FilterIntSetChunkedBitmap(col, cs, vals, sum), nil
			}
			return engine.FilterIntSetChunked(col, cs, vals, sum), nil, nil
		}
	}
	return nil, nil, fmt.Errorf("seg: %s: unsupported %v constraint on %v column", c.Attr, c.Kind, col.Kind())
}
