//go:build !(linux || darwin)

package colfile

import (
	"fmt"
	"io"
	"os"
	"unsafe"
)

// mapFile on platforms without the syscall.Mmap path reads the whole
// file into memory instead — correctness-preserving, but without the
// lazy-faulting property of the real mapping. The buffer is backed
// by a []uint64 allocation so the 8-byte-aligned typed views in
// read.go stay well-defined.
func mapFile(path string) ([]byte, func() error, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer fd.Close()
	st, err := fd.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size < headerSize+trailerSize {
		return nil, nil, fmt.Errorf("file is %d bytes, smaller than the %d-byte fixed framing (§3)",
			size, headerSize+trailerSize)
	}
	if int64(int(size)) != size {
		return nil, nil, fmt.Errorf("file is %d bytes, beyond this platform's address space", size)
	}
	words := make([]uint64, (size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := io.ReadFull(fd, buf); err != nil {
		return nil, nil, err
	}
	return buf, func() error { return nil }, nil
}

// syncDir is a no-op where directory handles cannot be fsynced
// portably; the renamed file's own bytes were synced before the
// rename.
func syncDir(string) error { return nil }
