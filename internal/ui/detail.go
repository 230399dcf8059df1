package ui

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
	"charles/internal/stats"
)

// sparkRunes are the eight block heights of a text sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders counts as a fixed-height text histogram, one
// rune per bucket, scaled to the maximum count.
func Sparkline(counts []int) string {
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return strings.Repeat(string(sparkRunes[0]), len(counts))
	}
	var b strings.Builder
	for _, c := range counts {
		idx := c * (len(sparkRunes) - 1) / max
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// HistogramBuckets computes a fixed-width histogram of a numeric
// column over a selection: bucket counts plus the [lo, hi] range.
// ok is false when the selection is empty or the column constant.
func HistogramBuckets(col engine.Column, sel engine.Selection, buckets int) (counts []int, lo, hi float64, ok bool) {
	if len(sel) == 0 || buckets < 1 {
		return nil, 0, 0, false
	}
	vals := make([]float64, len(sel))
	switch c := col.(type) {
	case *engine.FloatColumn:
		for i, row := range sel {
			vals[i] = c.Float64(int(row))
		}
	case engine.IntValued:
		for i, row := range sel {
			vals[i] = float64(c.Int64(int(row)))
		}
	default:
		return nil, 0, 0, false
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == hi {
		return nil, lo, hi, false
	}
	counts = make([]int, buckets)
	w := (hi - lo) / float64(buckets)
	for _, v := range vals {
		b := int((v - lo) / w)
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	return counts, lo, hi, true
}

// RenderSegmentDetail implements the Section 5.2 wish that Charles
// display more than counts about a segment: for every context
// attribute it plots the value distribution inside the segment —
// sparkline histograms for numeric columns, top-value shares for
// nominal ones.
func RenderSegmentDetail(ev *seg.Evaluator, q sdl.Query, attrs []string) (string, error) {
	cs, err := ev.SelectChunked(q)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "segment %s — %d rows\n", q, cs.Len())
	if cs.Len() == 0 {
		return b.String(), nil
	}
	for _, attr := range attrs {
		col, ok := ev.Table().ColumnByName(attr)
		if !ok {
			return "", fmt.Errorf("ui: no column %q", attr)
		}
		switch c := col.(type) {
		case *engine.StringColumn:
			renderNominalDetail(&b, attr, engine.StringValueCountsChunked(c, cs), cs.Len())
		case *engine.BoolColumn:
			renderNominalDetail(&b, attr, engine.BoolValueCountsChunked(c, cs), cs.Len())
		default:
			sel := cs.Flat()
			counts, lo, hi, ok := HistogramBuckets(col, sel, 16)
			if !ok {
				fmt.Fprintf(&b, "  %-20s (constant: %s)\n", attr, col.Value(int(sel[0])).String())
				continue
			}
			loV, hiV := formatBound(col, lo), formatBound(col, hi)
			fmt.Fprintf(&b, "  %-20s %s  [%s .. %s]\n", attr, Sparkline(counts), loV, hiV)
		}
	}
	return b.String(), nil
}

func formatBound(col engine.Column, v float64) string {
	if col.Kind() == engine.KindDate {
		return engine.FormatDays(int64(v))
	}
	if col.Kind() == engine.KindInt {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

func renderNominalDetail(b *strings.Builder, attr string, vcs []stats.ValueCount, total int) {
	slices.SortFunc(vcs, func(a, b stats.ValueCount) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.Value, b.Value))
	})
	const topK = 5
	var parts []string
	for i, vc := range vcs {
		if i >= topK {
			parts = append(parts, fmt.Sprintf("… +%d more", len(vcs)-topK))
			break
		}
		parts = append(parts, fmt.Sprintf("%s %.0f%%", vc.Value, 100*float64(vc.Count)/float64(total)))
	}
	fmt.Fprintf(b, "  %-20s %s\n", attr, strings.Join(parts, ", "))
}
