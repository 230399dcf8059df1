package engine

import (
	"sync/atomic"

	"charles/internal/par"
)

// scanWorkers caps the goroutines a single column scan may fan out
// to. 0 means one per available CPU.
var scanWorkers atomic.Int32

// parallelScanMinRows is the selection size below which chunked
// scans are not worth the goroutine hand-off: small scans stay on
// the calling goroutine at zero overhead.
const parallelScanMinRows = 1 << 15

// activeScanGoroutines counts the extra goroutines currently running
// chunked scans across the whole process. Scans only fan out while
// this stays under the cap, so nested parallelism — many advise
// workers each triggering large scans — degrades gracefully to
// sequential scanning instead of oversubscribing the scheduler.
var activeScanGoroutines atomic.Int32

// SetScanWorkers caps the number of goroutines one column scan may
// use. n < 1 restores the default of one worker per available CPU.
// It applies process-wide: the engine's tables are shared read-only
// structures, so scan parallelism is a deployment knob, not a
// per-session one.
func SetScanWorkers(n int) {
	if n < 1 {
		n = 0
	}
	scanWorkers.Store(int32(n))
}

// ScanWorkers reports the effective scan worker cap.
func ScanWorkers() int {
	return par.Workers(int(scanWorkers.Load()))
}

// grabScanSlots reserves up to want extra scan goroutines against
// the process-wide cap, returning how many were granted (possibly
// zero). Pair with releaseScanSlots.
func grabScanSlots(want, limit int) int {
	for {
		cur := activeScanGoroutines.Load()
		free := int32(limit) - cur
		if free <= 0 {
			return 0
		}
		grant := int32(want)
		if grant > free {
			grant = free
		}
		if activeScanGoroutines.CompareAndSwap(cur, cur+grant) {
			return int(grant)
		}
	}
}

func releaseScanSlots(n int) {
	if n > 0 {
		activeScanGoroutines.Add(int32(-n))
	}
}
