package engine

import "math/bits"

// Bitmap is the word-packed alternative to the sorted row-id
// Selection: one bit per table row, set when the row is selected.
// For dense selections it turns the sorted-merge intersection —
// the hot operation behind SDL products and INDEP — into word-wise
// AND + popcount, touching 1/64th of the memory per element and no
// branches. Sparse selections stay cheaper as row-id vectors; see
// DenseEnough for the crossover heuristic.
//
// The words are sharded by the same row-range chunks as the rest of
// the storage layer: chunks[c] holds chunk c's bits, and a chunk
// with no selected rows stays nil — never allocated, skipped by
// every operation. An extent confined to one region of a 10M-row
// table therefore costs words proportional to the region, not the
// table, and AndCount skips disjoint regions chunk-at-a-time.
//
// A Bitmap is immutable after construction and therefore safe for
// concurrent readers, matching the Selection contract.
type Bitmap struct {
	chunks    [][]uint64
	nRows     int
	chunkRows int
	// chunkShift/chunkMask hold the shift+mask form of the chunk
	// addressing when chunkRows is a power of two (every table
	// layout; Contains is a per-row hot path under the mixed
	// sparse-probe-dense intersection). chunkMask is 0 for the
	// off-path non-power-of-two widths, which divide instead.
	chunkShift uint
	chunkMask  int
	ones       int
}

// bitmapDensityDen is the density crossover denominator: at
// |sel|/nRows ≥ 1/64 the bitmap's nRows/64 words cost no more to
// scan than the selection's row ids, and the word-parallel AND wins.
const bitmapDensityDen = 64

// DenseEnough reports whether a selection of selLen rows out of
// nRows is dense enough (≥ 1/64) for the bitmap representation to
// beat the sorted row-id vector.
func DenseEnough(selLen, nRows int) bool {
	return selLen > 0 && int64(selLen)*bitmapDensityDen >= int64(nRows)
}

// NewBitmap packs a sorted selection over an nRows universe into a
// bitmap chunked at the default width. Every row id must be in
// [0, nRows).
func NewBitmap(sel Selection, nRows int) *Bitmap {
	return NewBitmapChunked(ChunkSelection(sel, nRows, DefaultChunkRows))
}

// newBitmapShell returns an all-empty bitmap in the given layout,
// with the shift+mask addressing precomputed. Callers fill chunks
// and the ones count.
func newBitmapShell(nRows, chunkRows, nc int) *Bitmap {
	b := &Bitmap{
		chunks:    make([][]uint64, nc),
		nRows:     nRows,
		chunkRows: chunkRows,
	}
	if b.chunkRows&(b.chunkRows-1) == 0 {
		b.chunkMask = b.chunkRows - 1
		for 1<<b.chunkShift < b.chunkRows {
			b.chunkShift++
		}
	}
	return b
}

// chunkWordCount returns the number of words chunk c's bitset needs
// (the final chunk may cover fewer than chunkRows rows).
func (b *Bitmap) chunkWordCount(c int) int {
	top := b.chunkRows
	if rest := b.nRows - c*b.chunkRows; rest < top {
		top = rest
	}
	return (top + 63) / 64
}

// setSegBits sets every row of seg in words (rows local to base) and
// returns the count set.
func setSegBits(words []uint64, seg Selection, base int32) int {
	for _, row := range seg {
		setBit(words, row-base)
	}
	return len(seg)
}

// NewBitmapChunked packs a chunked selection into a bitmap with the
// same chunk layout, one chunk per worker-pool task. Empty chunks
// stay nil.
func NewBitmapChunked(cs *ChunkedSelection) *Bitmap {
	b := newBitmapShell(cs.NumRows(), cs.ChunkRows(), cs.NumChunks())
	b.ones = cs.Len()
	forEachSeg(cs, func(c int) {
		seg := cs.Seg(c)
		if len(seg) == 0 {
			return
		}
		words := make([]uint64, b.chunkWordCount(c))
		setSegBits(words, seg, int32(c*b.chunkRows))
		b.chunks[c] = words
	})
	return b
}

// SpliceBitmap merges a partial re-evaluation into a cached bitmap:
// dirty chunks take fresh's words, clean chunks keep old's. The
// result lives in fresh's layout (whose universe may have grown past
// old's after appends — a clean chunk always existed in old at full
// width, so its word slice carries over unchanged). The popcount is
// recomputed from the kept words.
func SpliceBitmap(old, fresh *Bitmap, dirty []bool) *Bitmap {
	out := newBitmapShell(fresh.nRows, fresh.chunkRows, len(fresh.chunks))
	for c := range out.chunks {
		var words []uint64
		if dirty[c] || c >= len(old.chunks) {
			words = fresh.chunks[c]
		} else {
			words = old.chunks[c]
		}
		if words == nil {
			continue
		}
		out.chunks[c] = words
		for _, w := range words {
			out.ones += bits.OnesCount64(w)
		}
	}
	return out
}

// NumRows returns the universe size the bitmap was built over.
func (b *Bitmap) NumRows() int { return b.nRows }

// ChunkRows returns the chunk width the bitmap's words are sharded
// by.
func (b *Bitmap) ChunkRows() int { return b.chunkRows }

// Count returns the number of selected rows (the popcount).
func (b *Bitmap) Count() int { return b.ones }

// Contains reports whether row is selected. Rows outside the
// universe are never selected.
func (b *Bitmap) Contains(row int32) bool {
	if row < 0 || int(row) >= b.nRows {
		return false
	}
	var c, local int
	if b.chunkMask != 0 {
		c = int(row) >> b.chunkShift
		local = int(row) & b.chunkMask
	} else {
		c = int(row) / b.chunkRows
		local = int(row) - c*b.chunkRows
	}
	words := b.chunks[c]
	if words == nil {
		return false
	}
	return words[local>>6]&(1<<(uint(local)&63)) != 0
}

// sameLayout reports whether two bitmaps shard their words
// identically, making word-wise operations chunk-aligned.
func sameLayout(a, o *Bitmap) bool { return a.chunkRows == o.chunkRows }

// AndCount returns |b ∩ o| by chunk-wise word AND + popcount,
// skipping every chunk either side leaves empty, without
// materializing the intersection — the bitmap counterpart of
// IntersectCount. Universes may differ in size; the count is over
// the shared prefix, as with the row-id merge.
func (b *Bitmap) AndCount(o *Bitmap) int {
	if !sameLayout(b, o) {
		return andCountMismatched(b, o)
	}
	nc := len(b.chunks)
	if len(o.chunks) < nc {
		nc = len(o.chunks)
	}
	n := 0
	for c := 0; c < nc; c++ {
		wa, wb := b.chunks[c], o.chunks[c]
		if wa == nil || wb == nil {
			continue
		}
		if len(wb) < len(wa) {
			wa, wb = wb, wa
		}
		for i, x := range wa {
			n += bits.OnesCount64(x & wb[i])
		}
	}
	return n
}

// andCountMismatched handles the off-path case of bitmaps packed at
// different chunk widths (never produced by one evaluator): probe
// the sparser side's rows against the other.
func andCountMismatched(a, o *Bitmap) int {
	if o.ones < a.ones {
		a, o = o, a
	}
	return AndCountSelection(o, a.Selection())
}

// And returns the materialized intersection b ∩ o as a fresh bitmap
// over the smaller universe. Chunks empty on either side stay nil in
// the result.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	small, big := b, o
	if big.nRows < small.nRows {
		small, big = big, small
	}
	if !sameLayout(small, big) {
		sel := Intersect(small.Selection(), big.Selection())
		return NewBitmapChunked(ChunkSelection(sel, small.nRows, small.chunkRows))
	}
	out := &Bitmap{
		chunks:     make([][]uint64, len(small.chunks)),
		nRows:      small.nRows,
		chunkRows:  small.chunkRows,
		chunkShift: small.chunkShift,
		chunkMask:  small.chunkMask,
	}
	for c := range small.chunks {
		wa, wb := small.chunks[c], big.chunks[c]
		if wa == nil || wb == nil {
			continue
		}
		if len(wb) < len(wa) {
			wa, wb = wb, wa
		}
		words := make([]uint64, len(wa))
		onesBefore := out.ones
		for i, x := range wa {
			w := x & wb[i]
			words[i] = w
			out.ones += bits.OnesCount64(w)
		}
		if out.ones > onesBefore {
			out.chunks[c] = words
		}
	}
	return out
}

// Selection materializes the bitmap back into a sorted row-id
// vector, the exact inverse of NewBitmap, skipping empty chunks.
func (b *Bitmap) Selection() Selection {
	out := make(Selection, 0, b.ones)
	for c, words := range b.chunks {
		if words == nil {
			continue
		}
		chunkBase := int32(c * b.chunkRows)
		for wi, w := range words {
			base := chunkBase + int32(wi)<<6
			for w != 0 {
				out = append(out, base+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
	return out
}

// AndCountSelection returns |b ∩ sel| by probing the bitmap with
// each row id — the mixed-representation path a sparse selection
// takes against a dense one: O(|sel|) probes beat both a full merge
// and packing the sparse side.
func AndCountSelection(b *Bitmap, sel Selection) int {
	n := 0
	for _, row := range sel {
		if b.Contains(row) {
			n++
		}
	}
	return n
}
