//go:build linux || darwin

package colfile

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile memory-maps path read-only. The returned bytes alias the
// page cache: nothing is read until touched, which is what makes
// Open O(metadata) on tables far larger than RAM. The closer unmaps.
// An empty file cannot be mapped (and cannot be a colfile); it is
// reported as truncated rather than as an mmap errno.
func mapFile(path string) ([]byte, func() error, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer fd.Close() // the mapping outlives the descriptor
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
	data, err := syscall.Mmap(int(fd.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("mmap: %w", err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

// syncDir flushes dir's entries — a rename into it — to stable
// storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
