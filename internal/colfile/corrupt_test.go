package colfile

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestFile writes a small clean file and returns its bytes.
func writeTestFile(t *testing.T) (path string, raw []byte) {
	t.Helper()
	tab := testTable(t, 700, 7)
	path = filepath.Join(t.TempDir(), "corrupt"+Extension)
	if err := Write(path, tab, WriteOptions{ChunkRows: 128}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// reopen writes raw under a fresh name and opens it, expecting an
// error mentioning every fragment in wants. The loader contract
// (§11) is: corrupt, truncated or wrong-version input fails with a
// descriptive error — never a panic, never a silent mis-read.
func expectOpenError(t *testing.T, raw []byte, wants ...string) {
	t.Helper()
	p := filepath.Join(t.TempDir(), "bad"+Extension)
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(p)
	if err == nil {
		f.Close()
		t.Fatalf("open succeeded on corrupt input, want error mentioning %q", wants)
	}
	for _, w := range wants {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("error %q does not mention %q", err, w)
		}
	}
}

// rewriteFooter parses raw's footer, applies mutate, and re-emits
// the file with a consistent footer length, checksum and trailer —
// so the corruption under test is the *semantic* one mutate applied,
// not a checksum mismatch masking it. It takes a testing.TB so the
// fuzz harness can use it to seed CRC-valid hostile footers.
func rewriteFooter(t testing.TB, raw []byte, mutate func(*footer)) []byte {
	t.Helper()
	tr := raw[len(raw)-trailerSize:]
	flen := int(binary.LittleEndian.Uint64(tr[0:8]))
	fstart := len(raw) - trailerSize - flen
	var ft footer
	if err := json.Unmarshal(raw[fstart:fstart+flen], &ft); err != nil {
		t.Fatal(err)
	}
	mutate(&ft)
	fj, err := json.Marshal(ft)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), raw[:fstart]...)
	out = append(out, fj...)
	var ntr [trailerSize]byte
	binary.LittleEndian.PutUint64(ntr[0:8], uint64(len(fj)))
	binary.LittleEndian.PutUint32(ntr[8:12], crc32.ChecksumIEEE(fj))
	copy(ntr[16:24], Magic)
	return append(out, ntr[:]...)
}

func TestOpenRejectsNonColfile(t *testing.T) {
	expectOpenError(t, []byte("this is not a column file, just some text padding to pass the size gate........."),
		"magic", "not a colfile")
}

func TestOpenRejectsTruncatedFile(t *testing.T) {
	_, raw := writeTestFile(t)
	// Truncating anywhere inside the body chops the trailer off.
	expectOpenError(t, raw[:len(raw)/2], "trailer magic")
	// A file shorter than the fixed framing is reported as such.
	expectOpenError(t, raw[:10], "fixed framing")
}

func TestOpenRejectsWrongVersion(t *testing.T) {
	_, raw := writeTestFile(t)
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[8:12], 99)
	expectOpenError(t, bad, "version 99", "supports only version 1")
}

func TestOpenRejectsUnknownFlags(t *testing.T) {
	_, raw := writeTestFile(t)
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[12:16], 0x80)
	expectOpenError(t, bad, "flags")
}

func TestOpenRejectsFooterCorruption(t *testing.T) {
	_, raw := writeTestFile(t)
	// Flip one byte inside the footer JSON: the checksum must catch it.
	tr := raw[len(raw)-trailerSize:]
	flen := int(binary.LittleEndian.Uint64(tr[0:8]))
	bad := append([]byte(nil), raw...)
	bad[len(bad)-trailerSize-flen/2] ^= 0xFF
	expectOpenError(t, bad, "footer checksum mismatch")
	// A footer length pointing past the start of the file.
	bad = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(bad[len(bad)-trailerSize:][0:8], uint64(len(raw)))
	expectOpenError(t, bad, "footer")
}

func TestOpenRejectsBadChunkRows(t *testing.T) {
	_, raw := writeTestFile(t)
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.ChunkRows = 100 }),
		"chunk width 100", "power of two")
}

func TestOpenRejectsRegionViolations(t *testing.T) {
	_, raw := writeTestFile(t)
	// Data region running past the footer.
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.Columns[0].Data.Offset = int64(len(raw)) }),
		"outside the file body")
	// Misaligned int64 region (§2).
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.Columns[0].Data.Offset += 4 }),
		"aligned")
	// Region length disagreeing with rows × element size (§5).
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.Rows += 64 }),
		"bytes, want")
	// Two columns aliasing the same pages (§3).
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.Columns[1].Data = ft.Columns[0].Data }),
		"overlap")
	// Offset+Length wrapping past MaxInt64: the naive bound
	// `offset+length > footerStart` sees a negative sum and admits
	// the region, and slicing then panics. The dictionary region is
	// the nastiest target — it has no expected-length check to fall
	// back on — so that is the one pinned here.
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) {
		ft.Columns[3].Dict.Offset = 1 << 62
		ft.Columns[3].Dict.Length = math.MaxInt64 - 1<<62 + 100
	}), "outside the file body")
	// Same wrap on a data region, and a negative length.
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) {
		ft.Columns[0].Data.Offset = 1 << 62
		ft.Columns[0].Data.Length = math.MaxInt64 - 1<<62 + 100
	}), "outside the file body")
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.Columns[0].Data.Length = -8 }),
		"outside the file body")
}

func TestOpenRejectsSchemaCorruption(t *testing.T) {
	_, raw := writeTestFile(t)
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.Columns[1].Name = ft.Columns[0].Name }),
		"duplicate column")
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.Columns[0].Kind = "decimal" }),
		"unknown kind")
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.Columns = nil }),
		"no columns")
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.Columns[0].PageCRCs = ft.Columns[0].PageCRCs[1:] }),
		"page checksums")
}

func TestOpenRejectsDictionaryCorruption(t *testing.T) {
	_, raw := writeTestFile(t)
	var dictOff int64
	rewriteFooter(t, raw, func(ft *footer) { dictOff = ft.Columns[3].Dict.Offset }) // harbour
	bad := append([]byte(nil), raw...)
	bad[dictOff+6] ^= 0xFF // a byte inside the first dictionary entry
	expectOpenError(t, bad, "dictionary checksum mismatch")
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.Columns[3].DictCount++ }),
		"dictionary holds")
	expectOpenError(t, rewriteFooter(t, raw, func(ft *footer) { ft.Columns[3].Dict = nil }),
		"no dictionary region")
}

func TestOpenRejectsBadBooleanBytes(t *testing.T) {
	_, raw := writeTestFile(t)
	var boolOff int64
	rewriteFooter(t, raw, func(ft *footer) { boolOff = ft.Columns[5].Data.Offset }) // lost
	bad := append([]byte(nil), raw...)
	bad[boolOff+3] = 7
	expectOpenError(t, bad, "boolean byte 0x07", "want 0 or 1")
}

func TestOpenRejectsSummaryCorruption(t *testing.T) {
	_, raw := writeTestFile(t)
	var sumOff int64
	rewriteFooter(t, raw, func(ft *footer) { sumOff = ft.Columns[0].Summary.Offset })
	bad := append([]byte(nil), raw...)
	bad[sumOff] ^= 0xFF
	expectOpenError(t, bad, "summary checksum mismatch")
}

// TestVerifyCatchesPageCorruption pins the Open/Verify split (§9):
// a flipped byte inside a value page passes the structural checks at
// Open — by design, Open reads no pages — and Verify reports it.
func TestVerifyCatchesPageCorruption(t *testing.T) {
	_, raw := writeTestFile(t)
	var dataOff int64
	rewriteFooter(t, raw, func(ft *footer) { dataOff = ft.Columns[0].Data.Offset })
	bad := append([]byte(nil), raw...)
	bad[dataOff+999] ^= 0x01
	p := filepath.Join(t.TempDir(), "pagecorrupt"+Extension)
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(p)
	if err != nil {
		t.Fatalf("open should not read value pages, got: %v", err)
	}
	defer f.Close()
	err = f.Verify()
	if err == nil || !strings.Contains(err.Error(), "page") || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("verify error = %v, want a page checksum mismatch", err)
	}
}

// TestOpenRejectsOutOfRangeCodes pins §5.3: codes beyond the
// dictionary are caught eagerly at open — the engine indexes the
// dictionary by code without a bounds check, so admitting one would
// turn the first scan that touches the row into a panic. The page
// CRC is restored so only the range check can catch it: the write
// below is exactly the corruption a buggy writer would produce, with
// checksums agreeing with the bytes.
func TestOpenRejectsOutOfRangeCodes(t *testing.T) {
	_, raw := writeTestFile(t)
	var codeOff int64
	var ft0 footer
	rewriteFooter(t, raw, func(ft *footer) { codeOff, ft0 = ft.Columns[3].Data.Offset, *ft })
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[codeOff+40:], 1<<30) // a code no dictionary has
	pageBytes := ft0.ChunkRows * 4
	page0 := bad[codeOff : codeOff+pageBytes]
	bad = rewriteFooter(t, bad, func(ft *footer) { ft.Columns[3].PageCRCs[0] = crc32.ChecksumIEEE(page0) })
	expectOpenError(t, bad, "beyond the", "dictionary")
}

// TestPageChecksMatchRowScan pins the word-at-a-time open checks to
// a row-at-a-time scan at every length around the lane widths, with
// the one bad value in every position, tails included.
func TestPageChecksMatchRowScan(t *testing.T) {
	for n := 0; n <= 19; n++ {
		for bad := -1; bad < n; bad++ {
			codes := make([]uint32, n)
			bools := make([]byte, n)
			for i := range codes {
				codes[i] = uint32(i % 3)
				bools[i] = byte(i % 2)
			}
			if bad >= 0 {
				codes[bad] = 1 << 20
				bools[bad] = 2
			}
			want := uint32(0)
			for _, c := range codes {
				want = max(want, c)
			}
			if got := maxCode(codes); got != want {
				t.Fatalf("n=%d bad=%d: maxCode = %d, want %d", n, bad, got, want)
			}
			if got := validBoolBytes(bools); got != (bad < 0) {
				t.Fatalf("n=%d bad=%d: validBoolBytes = %v", n, bad, got)
			}
		}
	}
}
