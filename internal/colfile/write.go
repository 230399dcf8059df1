package colfile

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"strings"
	"unsafe"

	"charles/internal/engine"
)

// WriteOptions parameterizes an ingest.
type WriteOptions struct {
	// ChunkRows is the chunk width to persist pages and summaries
	// at; 0 keeps the table's current width. Other values normalize
	// the way engine.SetChunkRows does (power of two in [64, 2^30]).
	ChunkRows int
	// ClusterBy, when non-empty, reorders rows by this column before
	// writing (a stable sort, NaN floats last), so that zone-map and
	// code-presence pruning on the clustered column — and anything
	// correlated with it — skips whole chunks at query time.
	ClusterBy string
}

// Write persists a table to path in the colfile format
// (docs/FORMAT.md), writing to a temporary sibling first and
// renaming into place so a crashed ingest never leaves a partial
// file under the real name.
func Write(path string, t *engine.Table, opts WriteOptions) error {
	if !hostLittleEndian() {
		return fmt.Errorf("colfile: writing requires a little-endian host (§2)")
	}
	chunkRows := opts.ChunkRows
	if chunkRows == 0 {
		chunkRows = t.ChunkRows()
	}
	chunkRows = engine.NormalizeChunkRows(chunkRows)

	cols := t.Columns()
	if opts.ClusterBy != "" {
		var err error
		if cols, err = clusterColumns(t, opts.ClusterBy); err != nil {
			return err
		}
	}
	// A shadow table over the (possibly reordered) columns owns the
	// chunk layout and summary build for the write, leaving the
	// caller's table layout untouched.
	shadow, err := engine.NewTable(t.Name(), cols...)
	if err != nil {
		return fmt.Errorf("colfile: assembling table for write: %w", err)
	}
	shadow.SetChunkRows(chunkRows)
	shadow.WarmSummaries()

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	if err := writeFile(f, shadow, opts.ClusterBy); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// countingWriter tracks the absolute file offset and sticks at the
// first error, so the region bookkeeping above it stays linear.
type countingWriter struct {
	w   *bufio.Writer
	off int64
	err error
}

func (cw *countingWriter) write(b []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(b)
	cw.off += int64(n)
	cw.err = err
}

// pad8 advances to the next multiple of 8 with zero bytes (§3).
func (cw *countingWriter) pad8() {
	var zeros [8]byte
	if rem := cw.off & 7; rem != 0 {
		cw.write(zeros[:8-rem])
	}
}

// writeFile emits header, per-column regions, footer and trailer.
func writeFile(f *os.File, t *engine.Table, clusterBy string) error {
	cw := &countingWriter{w: bufio.NewWriterSize(f, 1<<20)}

	// Header (§4.1).
	var hdr [headerSize]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], 0) // flags
	cw.write(hdr[:])

	ft := footer{
		Version:   Version,
		Table:     t.Name(),
		Rows:      int64(t.NumRows()),
		ChunkRows: int64(t.ChunkRows()),
		ClusterBy: clusterBy,
	}
	nc := t.NumChunks()
	for i, col := range t.Columns() {
		cm := columnMeta{Name: col.Name(), Kind: col.Kind().String()}

		// Value pages (§5): the column's raw vector, viewed as bytes,
		// is exactly the concatenation of its chunk pages.
		data, dict, err := columnBytes(col)
		if err != nil {
			return err
		}
		cw.pad8()
		cm.Data = region{Offset: cw.off, Length: int64(len(data))}
		cm.PageCRCs = make([]uint32, 0, nc)
		pageBytes := int64(t.ChunkRows()) * elemSize(col.Kind())
		for c := 0; c < nc; c++ {
			lo := int64(c) * pageBytes
			hi := lo + pageBytes
			if hi > int64(len(data)) {
				hi = int64(len(data))
			}
			cm.PageCRCs = append(cm.PageCRCs, crc32.ChecksumIEEE(data[lo:hi]))
		}
		cw.write(data)

		// Dictionary region (§6).
		if dict != nil {
			enc := encodeDict(dict)
			cw.pad8()
			cm.Dict = &region{Offset: cw.off, Length: int64(len(enc)), CRC: crc32.ChecksumIEEE(enc)}
			cm.DictCount = int64(len(dict))
			cw.write(enc)
		}

		// Summary region (§7): the zone map the engine just built at
		// the file's chunk width, serialized for the reader to serve
		// back without scanning.
		if s := t.Summary(i); s != nil && nc > 0 {
			enc := encodeSummary(col.Kind(), s.Export())
			cw.pad8()
			cm.Summary = &region{Offset: cw.off, Length: int64(len(enc)), CRC: crc32.ChecksumIEEE(enc)}
			cw.write(enc)
		}
		ft.Columns = append(ft.Columns, cm)
	}

	// Footer (§8) + trailer (§4.2).
	cw.pad8()
	fj, err := json.Marshal(ft)
	if err != nil {
		return fmt.Errorf("colfile: encoding footer: %w", err)
	}
	cw.write(fj)
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(len(fj)))
	binary.LittleEndian.PutUint32(tr[8:12], crc32.ChecksumIEEE(fj))
	binary.LittleEndian.PutUint32(tr[12:16], 0) // reserved
	copy(tr[16:24], Magic)
	cw.write(tr[:])

	if cw.err != nil {
		return cw.err
	}
	return cw.w.Flush()
}

// columnBytes returns the little-endian byte image of a column's
// value vector (§5) — a zero-copy view of its backing slice — plus
// the dictionary of a string column.
func columnBytes(col engine.Column) (data []byte, dict []string, err error) {
	switch col := col.(type) {
	case *engine.IntColumn:
		return int64Bytes(col.Int64s()), nil, nil
	case *engine.DateColumn:
		return int64Bytes(col.Int64s()), nil, nil
	case *engine.FloatColumn:
		return float64Bytes(col.Float64s()), nil, nil
	case *engine.StringColumn:
		dict = make([]string, col.Cardinality())
		for i := range dict {
			dict[i] = col.DictValue(uint32(i))
		}
		return uint32Bytes(col.Codes()), dict, nil
	case *engine.BoolColumn:
		return boolBytes(col.Bools()), nil, nil
	default:
		return nil, nil, fmt.Errorf("colfile: cannot persist column %q of type %T", col.Name(), col)
	}
}

// cmpBool orders false before true.
func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	default:
		return -1
	}
}

// clusterColumns returns the table's columns reordered by a stable
// sort on the named column: ints/dates/floats ascending with NaN
// floats last, strings in byte order, bools false before true.
func clusterColumns(t *engine.Table, by string) ([]engine.Column, error) {
	key, ok := t.ColumnByName(by)
	if !ok {
		return nil, fmt.Errorf("colfile: cluster column %q does not exist", by)
	}
	rows := t.NumRows()
	perm := make([]int, rows)
	for i := range perm {
		perm[i] = i
	}
	var cmpRows func(a, b int) int
	switch key := key.(type) {
	case engine.IntValued:
		cmpRows = func(a, b int) int { return cmp.Compare(key.Int64(a), key.Int64(b)) }
	case engine.FloatValued:
		cmpRows = func(a, b int) int {
			av, bv := key.Float64(a), key.Float64(b)
			if aNaN, bNaN := av != av, bv != bv; aNaN || bNaN { // NaN sorts after every number
				return cmpBool(aNaN, bNaN)
			}
			return cmp.Compare(av, bv)
		}
	case *engine.StringColumn:
		cmpRows = func(a, b int) int { return strings.Compare(key.Str(a), key.Str(b)) }
	case *engine.BoolColumn:
		cmpRows = func(a, b int) int { return cmpBool(key.Bool(a), key.Bool(b)) }
	default:
		return nil, fmt.Errorf("colfile: cannot cluster by column %q of type %T", by, key)
	}
	slices.SortStableFunc(perm, cmpRows)

	out := make([]engine.Column, t.NumCols())
	for ci, col := range t.Columns() {
		switch col := col.(type) {
		case *engine.IntColumn:
			vals := make([]int64, rows)
			for i, r := range perm {
				vals[i] = col.Int64(r)
			}
			out[ci] = engine.NewIntColumn(col.Name(), vals)
		case *engine.DateColumn:
			vals := make([]int64, rows)
			for i, r := range perm {
				vals[i] = col.Int64(r)
			}
			out[ci] = engine.NewDateColumn(col.Name(), vals)
		case *engine.FloatColumn:
			vals := make([]float64, rows)
			for i, r := range perm {
				vals[i] = col.Float64(r)
			}
			out[ci] = engine.NewFloatColumn(col.Name(), vals)
		case *engine.StringColumn:
			codes := make([]uint32, rows)
			for i, r := range perm {
				codes[i] = col.Code(r)
			}
			dict := make([]string, col.Cardinality())
			for i := range dict {
				dict[i] = col.DictValue(uint32(i))
			}
			sc, err := engine.NewStringColumnFromDict(col.Name(), codes, dict)
			if err != nil {
				return nil, err
			}
			out[ci] = sc
		case *engine.BoolColumn:
			vals := make([]bool, rows)
			for i, r := range perm {
				vals[i] = col.Bool(r)
			}
			out[ci] = engine.NewBoolColumn(col.Name(), vals)
		default:
			return nil, fmt.Errorf("colfile: cannot persist column %q of type %T", col.Name(), col)
		}
	}
	return out, nil
}

// Zero-copy little-endian byte views of value vectors (§5). Valid
// only on little-endian hosts, which Write checks up front.

func int64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func float64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func uint32Bytes(v []uint32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

func boolBytes(v []bool) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v))
}
