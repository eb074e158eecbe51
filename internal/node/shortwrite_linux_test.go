//go:build linux

package node

import (
	"os/signal"
	"syscall"
	"testing"

	"pass/internal/provenance"
)

// capFileSize lowers RLIMIT_FSIZE for the whole process, so the next
// write that crosses limit bytes is cut short there (a real short
// write, EFBIG after the partial count); the returned func restores it.
func capFileSize(t *testing.T, limit uint64) func() {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	signal.Ignore(syscall.SIGXFSZ)
	capped := old
	capped.Cur = limit
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &capped); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	return func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatalf("restore RLIMIT_FSIZE: %v", err)
		}
	}
}

// TestWALShortWriteNacks: a publish whose append is cut short is nacked,
// and the torn bytes do not swallow what comes after — the next acked
// publish survives a restart, under the next sequence number.
func TestWALShortWriteNacks(t *testing.T) {
	nodes, cfgs, _, c := bootDurableCluster(t, "passnet", 1, 0)
	nd := nodes[0]
	before, torn, after := testRecord(t, 1, "short"), testRecord(t, 2, "short"), testRecord(t, 3, "short")
	if _, err := c.Put(nd.Addr(), before); err != nil {
		t.Fatalf("put before the short write: %v", err)
	}
	nd.mu.Lock()
	size := nd.log.Size()
	nd.mu.Unlock()
	restore := capFileSize(t, uint64(size)+12)
	_, err := c.Put(nd.Addr(), torn)
	restore()
	if err == nil {
		t.Fatal("put acked although its append was cut short")
	}
	if _, err := c.Put(nd.Addr(), after); err != nil {
		t.Fatalf("put after the short write: %v", err)
	}
	nd.Close()
	back := restartNode(t, cfgs[0])
	for _, r := range []struct {
		name string
		id   provenance.ID
		want bool
	}{{"before", before.ComputeID(), true}, {"torn", torn.ComputeID(), false}, {"after", after.ComputeID(), true}} {
		if got := holdsRecord(back, r.id); got != r.want {
			t.Errorf("restarted node holds the %s record: %v, want %v", r.name, got, r.want)
		}
	}
	back.mu.Lock()
	seq := back.seq
	back.mu.Unlock()
	if seq != 2 {
		t.Errorf("restarted node's sequence is %d, want 2 (the nacked publish spent none)", seq)
	}
}
