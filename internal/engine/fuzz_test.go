package engine

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzCodeSetFilter runs the dictionary-code set kernels
// (codeSetVerdict, scanCodeSet, codeSetBits) against the map oracle
// on fuzzer-chosen dictionaries, rows and wanted sets. rowCodes and
// wantCodes are little-endian uint16 codes, reduced modulo the
// dictionary size — wanted codes modulo a few more, so some name
// values the dictionary lacks. dictSize spans both summary forms
// (dense bitsets up to denseCodeDictMax, sparse code lists above);
// shape picks the chunk width; a non-zero grow appends rows that mint
// new dictionary values after the set is built.
//
// CI runs a short -fuzztime smoke (make fuzz-smoke); longer local
// runs just work: go test -fuzz=FuzzCodeSetFilter ./internal/engine
func FuzzCodeSetFilter(f *testing.F) {
	u16s := func(vs ...uint16) []byte {
		b := make([]byte, 2*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint16(b[2*i:], v)
		}
		return b
	}
	f.Add(u16s(0, 1, 2, 1, 0), u16s(1), uint16(3), uint8(0), uint8(0))
	f.Add(u16s(0, 0, 0, 0), u16s(), uint16(1), uint8(1), uint8(5))
	f.Add(u16s(62, 63, 64, 0, 64), u16s(0, 64, 70), uint16(65), uint8(0), uint8(3))
	f.Add(u16s(4100, 7, 4132, 4132, 0), u16s(4132, 9000), uint16(denseCodeDictMax+37), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, rowCodes, wantCodes []byte, dictSize uint16, shape, grow uint8) {
		const maxRows = 4096
		dictLen := 1 + int(dictSize)%(denseCodeDictMax+256)
		rows := min(len(rowCodes)/2, maxRows)
		if rows == 0 {
			return
		}
		codes := make([]uint32, rows)
		for i := range codes {
			codes[i] = uint32(int(binary.LittleEndian.Uint16(rowCodes[2*i:])) % dictLen)
		}
		tab, col := codeTable(t, dictLen, 64<<(shape&3), codes)
		var values []string
		for i := 0; i+1 < len(wantCodes); i += 2 {
			code := int(binary.LittleEndian.Uint16(wantCodes[i:])) % (dictLen + 8)
			if code < dictLen {
				values = append(values, col.DictValue(uint32(code)))
			} else {
				values = append(values, fmt.Sprintf("absent%d", code))
			}
		}
		want, oracle := stringCodeSet(col, values), oracleCodeSet(col, values)
		checkCodeSetKernels(t, tab, col, tab.AllChunked(), want, oracle)
		checkCodeSetKernels(t, tab, col, everyOther(tab.AllChunked()), want, oracle)
		if grow > 0 {
			growDictionary(t, tab, col, int(grow%64)+1)
			checkCodeSetKernels(t, tab, col, tab.AllChunked(), want, oracle)
		}
	})
}
