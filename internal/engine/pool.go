package engine

import "charles/internal/pool"

// Pooled scratch buffers for the chunked hot paths. The order
// statistics behind every cut point (medians, equi-depth quantiles)
// gather the extent's values into one transient vector, consume it,
// and drop it — on a warm advisor that is the single largest source
// of steady-state garbage, so the gather vectors recycle through
// internal/pool. Anything that escapes to a
// caller (filter results, bitmaps, cached selections) is never
// pooled.
var (
	int64Scratch   pool.Slice[int64]
	float64Scratch pool.Slice[float64]
)
