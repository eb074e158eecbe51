package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pass/internal/node"
	"pass/internal/provenance"
)

// syncBuf is a goroutine-safe strings.Builder: the node goroutine
// writes while the test polls.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var nodeBootLine = regexp.MustCompile(`passd: node (\d+) listening on (\S+) http (\S+)`)

func resolveUDP(t *testing.T, addr string) *net.UDPAddr {
	t.Helper()
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestNodeModeServesVerbsAndShutsDownOnSignal boots `passd node`
// in-process, drives a put/query through its UDP verbs, scrapes its
// /metrics surface, then sends SIGTERM and requires a clean exit.
func TestNodeModeServesVerbsAndShutsDownOnSignal(t *testing.T) {
	exitCh := make(chan int, 1)
	var out syncBuf
	go func() {
		exitCh <- run([]string{
			"node", "-id", "7", "-mode", "passnet",
			"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		}, &out)
	}()

	var udpAddr, httpAddr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := nodeBootLine.FindStringSubmatch(out.String()); m != nil {
			udpAddr, httpAddr = m[2], m[3]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never printed its boot line\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	c, err := node.NewClient(1000)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := resolveUDP(t, udpAddr)
	if err := c.SetPeers(addr, []node.Peer{{ID: 7, Addr: udpAddr}}); err != nil {
		t.Fatalf("roster: %v", err)
	}
	rec, _, err := provenance.NewRaw([32]byte{1}, 64).
		Attrs(provenance.Attr(provenance.KeyDomain, provenance.String("sig"))).
		CreatedAt(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Put(addr, rec)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := c.QueryAttr(addr, provenance.KeyDomain, provenance.String("sig"))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(got) != 1 || got[0] != id {
		t.Fatalf("query returned %v, want [%x]", got, id[:4])
	}

	expo := httpGet(t, "http://"+httpAddr+"/metrics")
	if !strings.Contains(expo, "pass_node_msgs_in") || !strings.Contains(expo, "pass_node_records 1") {
		t.Fatalf("node metrics missing series:\n%s", expo)
	}
	health := httpGet(t, "http://"+httpAddr+"/healthz")
	if !strings.Contains(health, `"healthy":true`) {
		t.Fatalf("healthz: %s", health)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exitCh:
		if code != 0 {
			t.Fatalf("node exited %d after SIGTERM\n%s", code, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("node never shut down\n%s", out.String())
	}
	if !strings.Contains(out.String(), "node 7 shut down") {
		t.Fatalf("no shutdown confirmation:\n%s", out.String())
	}
}

// TestUsageNodeOnly: passd has one verb. No arguments, an unknown verb
// and the retired `daemon` verb all print usage and exit 2.
func TestUsageNodeOnly(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"daemon"}} {
		var out strings.Builder
		if code := run(args, &out); code != 2 {
			t.Fatalf("run(%q) exit = %d, want 2", args, code)
		}
		if !strings.Contains(out.String(), "usage: passd node") {
			t.Fatalf("run(%q) printed no usage: %s", args, out.String())
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s\n%s", url, resp.Status, b)
	}
	return string(b)
}
