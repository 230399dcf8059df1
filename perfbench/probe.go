package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"charles"
	"charles/internal/engine"
)

// probeRepeats is how many times the ladder probe times each call;
// it reports the median.
const probeRepeats = 5

// probeBatches is how many 1,000-row batches the append probe times
// on workloads that do not append.
const probeBatches = 10

// timeIt runs f n times and returns the median in ms.
func timeIt(n int, f func()) float64 {
	var l latencies
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		l.add(time.Since(t0))
	}
	return l.p50()
}

// colfileProbe is the colfile rung for the HTTP workloads, which
// serve a memory table and do no colfile work themselves: it ingests
// the workload's table to .chc and opens it, as cold_scan does.
func colfileProbe(e *env, rep *report, tab *charles.Table) (string, error) {
	path := filepath.Join(e.work, "probe.chc")
	write := timeIt(setupRepeats, func() {
		os.Remove(path)
		if err := charles.SaveColumnFile(path, tab, charles.ColumnFileOptions{ClusterBy: coldClusterBy}); err != nil {
			rep.fail("colfile probe: %v", err)
		}
	})
	st, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	var open, warm latencies
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		ft, err := charles.OpenColumnFile(path)
		if err != nil {
			return "", err
		}
		t1 := time.Now()
		ft.WarmSummaries()
		warm.add(time.Since(t1))
		open.add(t1.Sub(t0))
		ft.Close()
	}
	rep.perLayer("colfile.write_ms", write, "ms")
	rep.perLayer("colfile.open_ms", open.p50(), "ms")
	rep.perLayer("colfile.stored_bytes_per_row", float64(st.Size())/float64(tab.NumRows()), "B")
	rep.perLayer("engine.warm_summaries_ms", warm.p50(), "ms")
	rep.note("colfile.*, engine.warm_summaries_ms: ladder probe over a .chc of this workload's table; the workload serves a memory table")
	return path, nil
}

// ladderProbe times the public chunked engine kernels (ROADMAP rung
// L1) over the full file-backed table, and Table.AppendRows over the
// memory table mem with batches (the workload's own, or generated
// ones when nil). Each result is checked against its twin kernel.
func ladderProbe(e *env, rep *report, chc string, mem *charles.Table, batches []batch) error {
	tab, err := charles.OpenColumnFile(chc)
	if err != nil {
		return err
	}
	defer tab.Close()
	tab.WarmSummaries()
	cs := tab.AllChunked()
	ton, ok := tab.MustColumn("tonnage").(engine.IntValued)
	if !ok {
		return fmt.Errorf("tonnage is not an int column")
	}
	typ, ok := tab.MustColumn("type_of_boat").(*engine.StringColumn)
	if !ok {
		return fmt.Errorf("type_of_boat is not a string column")
	}
	tonSum, typSum := tab.SummaryByName("tonnage"), tab.SummaryByName("type_of_boat")
	r := engine.IntRange{Lo: 300, Hi: 700, LoIncl: true, HiIncl: true}
	types := []string{"fluit", "jacht"}

	var intSel, strSel *engine.ChunkedSelection
	var strBM *engine.Bitmap
	var median int64
	rep.perLayer("engine.filter_int_ms", timeIt(probeRepeats, func() { intSel = engine.FilterIntRangeChunked(ton, cs, r, tonSum) }), "ms")
	rep.perLayer("engine.filter_string_ms", timeIt(probeRepeats, func() { strSel = engine.FilterStringSetChunked(typ, cs, types, typSum) }), "ms")
	rep.perLayer("engine.filter_string_bitmap_ms", timeIt(probeRepeats, func() { strBM = engine.FilterStringSetChunkedBitmap(typ, cs, types, typSum) }), "ms")
	rep.perLayer("engine.median_int_ms", timeIt(probeRepeats, func() { median, _ = engine.IntMedianChunked(ton, cs) }), "ms")
	rep.perLayer("engine.sorted_runs_ms", timeIt(probeRepeats, func() { engine.IntSortedRuns(ton, cs) }), "ms")
	rep.perLayer("engine.bitmap_pack_ms", timeIt(probeRepeats, func() { engine.NewBitmapChunked(intSel) }), "ms")
	if engine.AndCountSelection(strBM, strSel.Flat()) != strSel.Len() {
		rep.fail("kernel probe: bitmap and vector string filters disagree")
	}
	if lo, hi, _ := engine.IntMinMaxChunked(ton, cs); median < lo || median > hi {
		rep.fail("kernel probe: median %d outside [%d, %d]", median, lo, hi)
	}

	if batches == nil {
		for k := 0; k < probeBatches; k++ {
			batches = append(batches, makeBatch(e.seed, k))
		}
	}
	var app latencies
	before := mem.NumRows()
	for _, b := range batches {
		t0 := time.Now()
		if err := mem.AppendRows(b.rows...); err != nil {
			return fmt.Errorf("append probe: %w", err)
		}
		app.add(time.Since(t0))
	}
	if mem.NumRows() != before+len(batches)*batchRows {
		rep.fail("append probe: %d rows after appending %d batches to %d", mem.NumRows(), len(batches), before)
	}
	rep.perLayer("engine.append_rows_ms", app.p50(), "ms")
	rep.note("engine kernels: median of %d calls over the %d-row file-backed table; engine.append_rows_ms: median of %d batches of %d rows",
		probeRepeats, tab.NumRows(), app.n(), batchRows)
	return nil
}
