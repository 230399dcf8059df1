package seg

// CutCacheState reports how many cut-cache entries ev holds and how
// many of them retain refreshable per-chunk state (sorted runs or
// count vectors), for the external tests in package seg_test.
func CutCacheState(ev *Evaluator) (entries, retained int) {
	ev.cutMu.RLock()
	defer ev.cutMu.RUnlock()
	for _, ent := range ev.cuts {
		entries++
		if ent.intRuns != nil || ent.strCounts != nil {
			retained++
		}
	}
	return entries, retained
}
