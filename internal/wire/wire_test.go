package wire

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	in := Envelope{
		Ver: Version, Type: TPut, Flags: FlagResponse,
		From: -7, MsgID: 0xDEADBEEFCAFE, Size: 12345,
		Payload: []byte("hello wire"),
	}
	out, err := Decode(in.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Ver != in.Ver || out.Type != in.Type || out.Flags != in.Flags ||
		out.From != in.From || out.MsgID != in.MsgID || out.Size != in.Size ||
		!bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestEnvelopeDecodeRejects(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("short frame: got %v, want ErrBadEnvelope", err)
	}
	bad := (Envelope{Ver: Version, Type: TPing}).Encode()
	bad[0] = 99
	if _, err := Decode(bad); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("wrong version: got %v, want ErrBadEnvelope", err)
	}
}

func TestEnvelopeHeaderSize(t *testing.T) {
	if got := len((Envelope{}).Encode()); got != HeaderSize {
		t.Fatalf("empty envelope encodes to %d bytes, want HeaderSize=%d", got, HeaderSize)
	}
}

func newPair(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	a, err := NewEndpoint(1, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("bind a: %v", err)
	}
	b, err := NewEndpoint(2, "127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Fatalf("bind b: %v", err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestEndpointRequestResponse(t *testing.T) {
	a, b := newPair(t)
	b.Handle(func(env Envelope, _ *net.UDPAddr, reply func(Type, []byte)) {
		if env.Type == TPing {
			reply(TPong, append([]byte("pong:"), env.Payload...))
		}
	})
	resp, err := a.Request(b.Addr(), TPing, []byte("x1"))
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	if resp.Type != TPong || string(resp.Payload) != "pong:x1" {
		t.Fatalf("got type %d payload %q", resp.Type, resp.Payload)
	}
	if resp.From != b.ID() {
		t.Fatalf("response From = %d, want %d", resp.From, b.ID())
	}
}

func TestEndpointConcurrentRequestsMatchByMsgID(t *testing.T) {
	a, b := newPair(t)
	b.Handle(func(env Envelope, _ *net.UDPAddr, reply func(Type, []byte)) {
		// Echo after a handler-side shuffle delay so responses come back
		// out of order; MsgID matching must still pair them correctly.
		if env.Payload[0]%2 == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		reply(TPong, env.Payload)
	})
	a.Timeout = 2 * time.Second
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i byte) {
			resp, err := a.Request(b.Addr(), TPing, []byte{i})
			if err == nil && resp.Payload[0] != i {
				err = errors.New("response for wrong request")
			}
			errs <- err
		}(byte(i))
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestEndpointRequestTimesOutWithoutResponder(t *testing.T) {
	a, b := newPair(t)
	// b installs no handler: requests arrive and vanish.
	a.Timeout = 50 * time.Millisecond
	start := time.Now()
	_, err := a.Request(b.Addr(), TPing, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("returned after %v, before the deadline", el)
	}
	// The abandoned waiter must have been removed.
	a.mu.Lock()
	pending := len(a.inflight)
	a.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d inflight waiters leaked", pending)
	}
}

func TestEndpointDropRuleBlocksPeer(t *testing.T) {
	a, b := newPair(t)
	b.Handle(func(env Envelope, _ *net.UDPAddr, reply func(Type, []byte)) {
		reply(TPong, nil)
	})
	b.SetDrop(a.ID(), 1.0, 1)
	a.Timeout = 50 * time.Millisecond
	if _, err := a.Request(b.Addr(), TPing, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("through a rate-1 drop rule: got %v, want ErrTimeout", err)
	}
	if b.Dropped() == 0 {
		t.Fatal("drop counter did not move")
	}
	// Clearing the rule restores the path.
	b.SetDrop(a.ID(), 0, 0)
	a.Timeout = time.Second
	if _, err := a.Request(b.Addr(), TPing, nil); err != nil {
		t.Fatalf("after clearing rule: %v", err)
	}
}

func TestEndpointRequestRetrySurvivesPartialLoss(t *testing.T) {
	a, b := newPair(t)
	b.Handle(func(env Envelope, _ *net.UDPAddr, reply func(Type, []byte)) {
		reply(TPong, nil)
	})
	// ~60% ingress loss: single attempts fail often, 6 retries all but
	// guarantee success.
	b.SetDrop(a.ID(), 0.6, 42)
	a.Timeout = 30 * time.Millisecond
	if _, err := a.RequestRetry(b.Addr(), TPing, nil, 6); err != nil {
		t.Fatalf("RequestRetry under 60%% loss: %v", err)
	}
}

func TestEndpointClosedRejects(t *testing.T) {
	a, b := newPair(t)
	a.Close()
	if _, err := a.Request(b.Addr(), TPing, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestReplyCountedBeforeRequesterSeesIt: a replier's egress counters
// hold every reply the requester has received, on the datagram and the
// stream path alike, so a round trip followed by a read of the
// replier's Stats sees exact counts.
func TestReplyCountedBeforeRequesterSeesIt(t *testing.T) {
	a, b := newPair(t)
	// NewEndpoint leaves the stream listener out when the TCP port is
	// taken (a dialled connection's local port can hold it); rebind the
	// replier until it has one, or the stream half cannot run.
	for tries := 0; b.ln == nil && tries < 10; tries++ {
		b.Close()
		nb, err := NewEndpoint(2, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("rebind: %v", err)
		}
		t.Cleanup(func() { nb.Close() })
		b = nb
	}
	b.Handle(func(env Envelope, _ *net.UDPAddr, reply func(Type, []byte)) {
		reply(TPong, env.Payload)
	})
	var wantMsgs, wantBytes int64
	check := func(i int, path string) {
		t.Helper()
		_, msgs, _, bytes := b.Stats()
		if msgs != wantMsgs || bytes != wantBytes {
			t.Fatalf("%s round trip %d: replier counts %d msgs, %d bytes out; want %d, %d",
				path, i, msgs, bytes, wantMsgs, wantBytes)
		}
	}
	for i := 0; i < 200; i++ {
		payload := make([]byte, i%7)
		if _, err := a.Request(b.Addr(), TPing, payload); err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		wantMsgs++
		wantBytes += int64(HeaderSize + len(payload))
		check(i, "datagram")
	}
	for i := 0; i < 20; i++ {
		payload := make([]byte, i)
		if _, err := a.RequestStream(b.Addr(), TPing, payload); err != nil {
			t.Fatalf("stream round trip %d: %v", i, err)
		}
		wantMsgs++
		wantBytes += int64(HeaderSize + 4 + len(payload))
		check(i, "stream")
	}
}
