//go:build unix

package kvstore

import (
	"fmt"
	"os"
	"syscall"
)

// mapRegion maps the first n bytes of f read-only. The mapping outlives
// f's descriptor; tables are immutable once renamed into place, so the
// pages never change under a reader. An empty region maps nothing (mmap
// rejects length 0).
func mapRegion(f *os.File, n int64) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if int64(int(n)) != n {
		return nil, fmt.Errorf("%w: entry region of %d bytes exceeds the address space", ErrBadTable, n)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
}

func unmapRegion(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}
