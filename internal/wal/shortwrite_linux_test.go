//go:build linux

package wal

import (
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
)

// TestShortWriteRollsBack: an append cut short by RLIMIT_FSIZE (a real
// partial write, then EFBIG) fails, and its torn bytes are cut off, so
// the next append is a record replay reaches rather than one hidden
// behind a torn record.
func TestShortWriteRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	signal.Ignore(syscall.SIGXFSZ)
	capped := old
	capped.Cur = uint64(l.Size()) + 12
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &capped); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	err = l.Append([]byte("torn-by-the-size-limit"))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatalf("restore RLIMIT_FSIZE: %v", rerr)
	}
	if err == nil {
		t.Fatal("append past the file size limit succeeded")
	}
	if err := l.Append([]byte("third")); err != nil {
		t.Fatalf("append after the short write: %v", err)
	}
	l.Close()
	var got []string
	if _, err := Replay(path, func(p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "first" || got[1] != "third" {
		t.Fatalf("replayed %q, want [first third]", got)
	}
}
