package seg_test

import (
	"path/filepath"
	"testing"

	"charles/internal/colfile"
	"charles/internal/core"
	"charles/internal/dataset"
	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
	"charles/internal/ui"
)

// adviseRanked runs one advise through ev and renders the ranked
// answer list.
func adviseRanked(t *testing.T, ev *seg.Evaluator, context string, workers int) string {
	t.Helper()
	q, err := sdl.ParseBound(context, ev.Table())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	res, err := core.HBCuts(ev, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ui.RenderRanked(res, 0)
}

// TestFileBackedCutRetainsNoState pins that the cut cache keeps no
// refreshable state (sorted runs, count vectors) for a read-only
// .chc-backed table — nothing can ever splice it — while the same
// table in memory does, and that the ranked output is byte-identical
// either way at workers 1 and 2. The contexts cut int, date, float
// and string columns.
func TestFileBackedCutRetainsNoState(t *testing.T) {
	const rows, chunkRows = 20000, 4096
	sources := []struct {
		name    string
		tab     *engine.Table
		context string
	}{
		{"voc", dataset.VOC(rows, 1), "(type_of_boat:, tonnage:, departure_date:, departure_harbour:)"},
		{"sky", dataset.SkySurvey(rows, 1), "(class:, magnitude:, redshift:)"},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			src.tab.SetChunkRows(chunkRows)
			path := filepath.Join(t.TempDir(), src.name+".chc")
			if err := colfile.Write(path, src.tab, colfile.WriteOptions{}); err != nil {
				t.Fatal(err)
			}
			file, err := colfile.OpenTable(path)
			if err != nil {
				t.Fatal(err)
			}
			defer file.Close()
			if file.Mutable() || !src.tab.Mutable() {
				t.Fatalf("Mutable: file %v, memory %v", file.Mutable(), src.tab.Mutable())
			}
			for _, workers := range []int{1, 2} {
				memEv, fileEv := seg.NewEvaluator(src.tab), seg.NewEvaluator(file)
				want := adviseRanked(t, memEv, src.context, workers)
				if got := adviseRanked(t, fileEv, src.context, workers); got != want {
					t.Fatalf("workers=%d: .chc ranked output differs from memory:\n--- chc\n%s\n--- memory\n%s", workers, got, want)
				}
				if entries, retained := seg.CutCacheState(fileEv); entries == 0 || retained != 0 {
					t.Fatalf("workers=%d: .chc table holds %d cut entries, %d with refreshable state; want >0 and 0", workers, entries, retained)
				}
				if _, retained := seg.CutCacheState(memEv); retained == 0 {
					t.Fatalf("workers=%d: memory table retained no cut state: the comparison proves nothing", workers)
				}
			}
		})
	}
}
