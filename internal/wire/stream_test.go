package wire

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// bootEcho binds an endpoint whose handler echoes the request payload
// back as TPong — over whichever framing the request arrived on.
func bootEcho(t *testing.T, id int32) *Endpoint {
	t.Helper()
	ep, err := NewEndpoint(id, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	ep.Handle(func(env Envelope, _ *net.UDPAddr, reply func(Type, []byte)) {
		reply(TPong, env.Payload)
	})
	return ep
}

// TestStreamCarriesOversizeRequest: a request payload past the datagram
// ceiling must transparently ride the stream framing through the SAME
// RequestTimeout API and round-trip intact.
func TestStreamCarriesOversizeRequest(t *testing.T) {
	srv := bootEcho(t, 1)
	cli := bootEcho(t, 2)
	payload := bytes.Repeat([]byte{0xAB}, MaxDatagram+5000)
	payload[0], payload[len(payload)-1] = 1, 2
	resp, err := cli.RequestTimeout(srv.Addr(), TPing, payload, 2*time.Second)
	if err != nil {
		t.Fatalf("oversize request: %v", err)
	}
	if !bytes.Equal(resp.Payload, payload) {
		t.Fatalf("oversize payload mangled: %d bytes back, want %d", len(resp.Payload), len(payload))
	}
}

// TestStreamCarriesOversizeResponse: a small request whose RESPONSE is
// oversize uses RequestStream explicitly (the requester knows the verb).
func TestStreamCarriesOversizeResponse(t *testing.T) {
	srv, err := NewEndpoint(3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	big := bytes.Repeat([]byte{0xCD}, MaxDatagram*2)
	srv.Handle(func(env Envelope, _ *net.UDPAddr, reply func(Type, []byte)) {
		reply(TSnapOK, big)
	})
	cli := bootEcho(t, 4)
	resp, err := cli.RequestStream(srv.Addr(), TSnap, nil)
	if err != nil {
		t.Fatalf("stream request: %v", err)
	}
	if resp.Type != TSnapOK || !bytes.Equal(resp.Payload, big) {
		t.Fatalf("oversize response mangled: type %d, %d bytes", resp.Type, len(resp.Payload))
	}
}

// TestSmallPayloadStaysOnDatagrams: the automatic framing choice must
// not move regular verbs onto TCP (stream bytes only flow when asked).
func TestSmallPayloadStaysOnDatagrams(t *testing.T) {
	srv := bootEcho(t, 5)
	cli := bootEcho(t, 6)
	if _, err := cli.RequestTimeout(srv.Addr(), TPing, []byte("x"), time.Second); err != nil {
		t.Fatal(err)
	}
	// A UDP response routes through the inflight map; a stream response
	// never does. One request, one matched response = datagram path.
	in, out, _, _ := cli.Stats()
	if in != 1 || out != 1 {
		t.Fatalf("datagram counters in=%d out=%d, want 1/1", in, out)
	}
}

// TestStreamRespectsDropRules: ingress drop rules discard stream frames
// after they cross the wire, so the requester sees a timeout — loss
// physics must be identical across framings.
func TestStreamRespectsDropRules(t *testing.T) {
	srv := bootEcho(t, 7)
	cli := bootEcho(t, 8)
	srv.SetDrop(8, 1.0, 99)
	cli.Timeout = 200 * time.Millisecond
	payload := bytes.Repeat([]byte{1}, MaxDatagram+1)
	_, err := cli.RequestTimeout(srv.Addr(), TPing, payload, 200*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped stream frame returned %v, want ErrTimeout", err)
	}
	if srv.Dropped() == 0 {
		t.Fatal("drop rule did not count the stream frame")
	}
	// Clearing the rule heals the path.
	srv.SetDrop(8, 0, 0)
	if _, err := cli.RequestTimeout(srv.Addr(), TPing, payload, 2*time.Second); err != nil {
		t.Fatalf("healed stream path: %v", err)
	}
}

// TestStreamTimeoutAgainstDeadPeer: a stream request to a closed
// endpoint fails within the deadline with ErrTimeout semantics.
func TestStreamTimeoutAgainstDeadPeer(t *testing.T) {
	srv := bootEcho(t, 9)
	addr := srv.Addr()
	srv.Close()
	cli := bootEcho(t, 10)
	start := time.Now()
	_, err := cli.requestStream(addr, TSnap, nil, 300*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("dead peer returned %v, want ErrTimeout", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("stream timeout did not respect the deadline")
	}
}

// TestRetryBackoffShape pins the RTO semantics: doubling per attempt,
// jitter within ±25%, capped after jitter.
func TestRetryBackoffShape(t *testing.T) {
	ep := bootEcho(t, 11)
	ep.RetryBase = 100 * time.Millisecond
	ep.RetryMax = 400 * time.Millisecond
	for attempt, want := range []time.Duration{100, 200, 400, 400, 400} {
		wantD := want * time.Millisecond
		for i := 0; i < 20; i++ {
			got := ep.retryBackoff(attempt)
			lo := time.Duration(float64(wantD) * 0.75)
			hi := time.Duration(float64(wantD) * 1.25)
			if hi > ep.RetryMax {
				hi = ep.RetryMax
			}
			if got < lo || got > hi {
				t.Fatalf("backoff(attempt=%d) = %v, want in [%v, %v]", attempt, got, lo, hi)
			}
		}
	}
	if got := ep.retryBackoff(200); got != ep.RetryMax {
		t.Fatalf("huge attempt count backoff = %v, want cap %v", got, ep.RetryMax)
	}
}

// TestRetryBackoffDesynchronizes: endpoints with different seeds draw
// different jitter schedules — the anti-retry-storm property.
func TestRetryBackoffDesynchronizes(t *testing.T) {
	a := bootEcho(t, 12)
	b := bootEcho(t, 13)
	a.RetryBase, a.RetryMax = 100*time.Millisecond, time.Second
	b.RetryBase, b.RetryMax = 100*time.Millisecond, time.Second
	a.SeedRetry(1)
	b.SeedRetry(2)
	same := 0
	for i := 0; i < 8; i++ {
		if a.retryBackoff(0) == b.retryBackoff(0) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("differently seeded endpoints drew identical backoff schedules")
	}
	// Same seed, same schedule (determinism).
	a.SeedRetry(42)
	b.SeedRetry(42)
	for i := 0; i < 8; i++ {
		if x, y := a.retryBackoff(i%3), b.retryBackoff(i%3); x != y {
			t.Fatalf("same-seed backoff diverged: %v != %v", x, y)
		}
	}
}

// TestRequestRetryBacksOffBetweenAttempts: wall-clock proof the sleeps
// actually happen — total time for a failed retry run must include the
// inter-attempt backoff, not just the per-attempt deadlines.
func TestRequestRetryBacksOffBetweenAttempts(t *testing.T) {
	srv := bootEcho(t, 14)
	addr := srv.Addr()
	srv.Close()
	cli := bootEcho(t, 15)
	cli.Timeout = 50 * time.Millisecond
	cli.RetryBase = 80 * time.Millisecond
	cli.RetryMax = 160 * time.Millisecond
	start := time.Now()
	_, err := cli.RequestRetry(addr, TPing, nil, 2)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	// 3 attempts × 50ms deadlines + backoffs of ~80ms and ~160ms (±25%):
	// anything under the deadline-only floor means no backoff happened.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond+(60+120)*time.Millisecond {
		t.Fatalf("retry run finished in %v — backoff sleeps missing", elapsed)
	}
}
