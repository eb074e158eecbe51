//go:build !unix

package kvstore

import "os"

// mapRegion reads the first n bytes of f into the heap: off unix there
// is no syscall.Mmap, so the table pays one copy at open instead.
func mapRegion(f *os.File, n int64) ([]byte, error) {
	b := make([]byte, n)
	if _, err := f.ReadAt(b, 0); err != nil {
		return nil, err
	}
	return b, nil
}

func unmapRegion([]byte) error { return nil }
