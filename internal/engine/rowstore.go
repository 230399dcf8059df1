package engine

import "charles/internal/stats"

// RowTable is a deliberately row-at-a-time copy of a Table: every
// row is a materialized []Value. It exists only for the vertical-
// scalability experiment (E7): the paper argues column stores suit
// Charles' workload of medians and predicate counts, and this
// executor is the strawman that lets us measure rather than assert
// that claim. It is not used on any advisory path.
type RowTable struct {
	name   string
	names  []string
	kinds  []Kind
	rows   [][]Value
	byName map[string]int
}

// NewRowTable materializes t row by row.
func NewRowTable(t *Table) *RowTable {
	rt := &RowTable{
		name:   t.Name(),
		names:  t.ColumnNames(),
		kinds:  make([]Kind, t.NumCols()),
		rows:   make([][]Value, t.NumRows()),
		byName: make(map[string]int, t.NumCols()),
	}
	for i, c := range t.Columns() {
		rt.kinds[i] = c.Kind()
		rt.byName[c.Name()] = i
	}
	for r := 0; r < t.NumRows(); r++ {
		row := make([]Value, t.NumCols())
		for c, col := range t.Columns() {
			row[c] = col.Value(r)
		}
		rt.rows[r] = row
	}
	return rt
}

// NumRows returns the row count.
func (rt *RowTable) NumRows() int { return len(rt.rows) }

// ColumnIndex resolves a column name, or −1.
func (rt *RowTable) ColumnIndex(name string) int {
	if i, ok := rt.byName[name]; ok {
		return i
	}
	return -1
}

// CountIntRange counts rows whose col value lies in r — the
// row-at-a-time version of FilterIntRangeChunked + Len.
func (rt *RowTable) CountIntRange(col int, r IntRange) int {
	n := 0
	for _, row := range rt.rows {
		if r.Contains(row[col].AsInt()) {
			n++
		}
	}
	return n
}

// CountStringSet counts rows whose col value is in values.
func (rt *RowTable) CountStringSet(col int, values []string) int {
	want := make(map[string]struct{}, len(values))
	for _, v := range values {
		want[v] = struct{}{}
	}
	n := 0
	for _, row := range rt.rows {
		if _, ok := want[row[col].AsString()]; ok {
			n++
		}
	}
	return n
}

// MedianInt computes the upper median of an int/date column by
// extracting the attribute from every materialized row.
func (rt *RowTable) MedianInt(col int) (int64, bool) {
	if len(rt.rows) == 0 {
		return 0, false
	}
	vals := make([]int64, len(rt.rows))
	for i, row := range rt.rows {
		vals[i] = row[col].AsInt()
	}
	return stats.MedianInt64(vals), true
}
