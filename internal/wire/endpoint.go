package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pass/internal/xrand"
)

// ErrTimeout is returned by Request when no response arrived within the
// attempt's deadline — the real-socket analogue of a lost message.
var ErrTimeout = errors.New("wire: request timed out")

// ErrClosed is returned for operations on a closed endpoint.
var ErrClosed = errors.New("wire: endpoint closed")

// DefaultRequestTimeout is the per-attempt response deadline when the
// caller does not override it. It is deliberately small: these endpoints
// speak over loopback in tests and single-datacenter links in anger, so
// a response that has not arrived in a quarter second is lost.
const DefaultRequestTimeout = 250 * time.Millisecond

// Handler consumes one non-response envelope. reply sends a response
// envelope back to the requester (same MsgID, FlagResponse set); calling
// it is optional — fire-and-forget verbs simply don't.
type Handler func(env Envelope, from *net.UDPAddr, reply func(t Type, payload []byte))

// dropRule is one per-peer ingress drop decision stream.
type dropRule struct {
	rate float64
	rng  *xrand.Rand
}

// Endpoint is one UDP wire endpoint: a socket, a read loop, and the
// inflight-waiter map that matches responses to requests by MsgID. A
// passd node process owns one; the cluster harness and the benchmark
// own one each to act as the client.
type Endpoint struct {
	id   int32
	conn *net.UDPConn
	ln   net.Listener // stream (TCP) listener on the same port; may be nil

	handler atomic.Pointer[Handler]

	mu       sync.Mutex
	inflight map[uint64]chan Envelope
	drops    map[int32]*dropRule
	closed   bool

	nextMsgID atomic.Uint64

	// Timeout is the per-attempt response deadline (DefaultRequestTimeout
	// when zero). Set before issuing requests.
	Timeout time.Duration

	// RetryBase/RetryMax shape RequestRetry's capped exponential backoff
	// (zero values derive from Timeout: base = Timeout/2, max = 4×Timeout).
	RetryBase time.Duration
	RetryMax  time.Duration

	retryMu  sync.Mutex
	retryRng *xrand.Rand

	// Counters (atomic; exposed for node metrics and harness asserts).
	msgsIn, msgsOut   atomic.Int64
	bytesIn, bytesOut atomic.Int64
	dropped           atomic.Int64
}

// NewEndpoint binds a UDP endpoint on addr ("127.0.0.1:0" picks an
// ephemeral port) and starts its read loop. The endpoint also listens on
// TCP at the SAME port for stream-framed oversize payloads; if that port
// is taken on TCP (rare — another process), the endpoint still works but
// oversize requests to it fail like a dead peer.
func NewEndpoint(id int32, addr string) (*Endpoint, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	ep := &Endpoint{
		id:       id,
		conn:     conn,
		inflight: make(map[uint64]chan Envelope),
		drops:    make(map[int32]*dropRule),
		retryRng: xrand.New(uint64(uint32(id))*0x9E3779B97F4A7C15 + 1),
	}
	bound := conn.LocalAddr().(*net.UDPAddr)
	if ln, err := net.Listen("tcp", net.JoinHostPort(bound.IP.String(), fmt.Sprint(bound.Port))); err == nil {
		ep.ln = ln
		go ep.serveStream(ln)
	}
	go ep.readLoop()
	return ep, nil
}

// SeedRetry reseeds the deterministic jitter stream RequestRetry's
// backoff draws from (the constructor seeds it from the endpoint ID).
func (ep *Endpoint) SeedRetry(seed uint64) {
	ep.retryMu.Lock()
	ep.retryRng = xrand.New(seed)
	ep.retryMu.Unlock()
}

// ID returns the endpoint's wire ID.
func (ep *Endpoint) ID() int32 { return ep.id }

// Addr returns the bound UDP address.
func (ep *Endpoint) Addr() *net.UDPAddr { return ep.conn.LocalAddr().(*net.UDPAddr) }

// Handle installs the handler for non-response envelopes. Envelopes
// arriving before a handler is installed are dropped (counted).
func (ep *Endpoint) Handle(h Handler) { ep.handler.Store(&h) }

// SetDrop installs (or, with rate <= 0, clears) a seeded ingress drop
// rule for datagrams from the given sender ID. Decisions are drawn from
// a deterministic per-rule stream, so two runs with the same seed and
// the same arrival sequence from that peer drop the same datagrams. A
// rate >= 1 drops everything — the cluster harness's partition primitive.
func (ep *Endpoint) SetDrop(from int32, rate float64, seed uint64) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if rate <= 0 {
		delete(ep.drops, from)
		return
	}
	ep.drops[from] = &dropRule{rate: rate, rng: xrand.New(seed)}
}

// Dropped reports how many ingress datagrams drop rules have discarded.
func (ep *Endpoint) Dropped() int64 { return ep.dropped.Load() }

// Stats reports cumulative endpoint traffic: messages and bytes in and
// out (ingress counts datagrams before drop rules run). A send is
// counted before it is written and taken back if the write fails, so
// once a peer has received a message — a reply included — the sender's
// counts already hold it.
func (ep *Endpoint) Stats() (msgsIn, msgsOut, bytesIn, bytesOut int64) {
	return ep.msgsIn.Load(), ep.msgsOut.Load(), ep.bytesIn.Load(), ep.bytesOut.Load()
}

// Close shuts the socket down; the read loop exits and every pending
// Request fails.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	for id, ch := range ep.inflight {
		close(ch)
		delete(ep.inflight, id)
	}
	ep.mu.Unlock()
	if ep.ln != nil {
		_ = ep.ln.Close()
	}
	return ep.conn.Close()
}

// readLoop is the endpoint's non-blocking ingestion path: decode, apply
// drop rules, route responses to their inflight waiters, dispatch
// everything else to the handler. Handler invocations run on their own
// goroutine so one slow verb cannot stall the socket.
func (ep *Endpoint) readLoop() {
	buf := make([]byte, MaxDatagram+512)
	for {
		n, from, err := ep.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		ep.msgsIn.Add(1)
		ep.bytesIn.Add(int64(n))
		env, err := Decode(buf[:n])
		if err != nil {
			continue
		}
		if ep.shouldDrop(env) {
			ep.dropped.Add(1)
			continue
		}
		// Payload aliases the read buffer; copy before leaving this
		// iteration.
		env.Payload = append([]byte(nil), env.Payload...)

		if env.Flags&FlagResponse != 0 {
			ep.mu.Lock()
			ch, ok := ep.inflight[env.MsgID]
			if ok {
				delete(ep.inflight, env.MsgID)
			}
			ep.mu.Unlock()
			if ok {
				ch <- env
			}
			continue
		}
		if hp := ep.handler.Load(); hp != nil {
			h := *hp
			fromCopy := *from
			go h(env, &fromCopy, func(t Type, payload []byte) {
				resp := Envelope{
					Ver: Version, Type: t, Flags: FlagResponse,
					From: ep.id, MsgID: env.MsgID,
					Size: uint32(len(payload)), Payload: payload,
				}
				_ = ep.send(resp, &fromCopy)
			})
		}
	}
}

// shouldDrop applies ingress drop rules. A FlagLost frame is always
// discarded — its sender poisoned it to simulate in-network loss — and
// per-peer rules are consulted for everything else.
func (ep *Endpoint) shouldDrop(env Envelope) bool {
	if env.Flags&FlagLost != 0 {
		return true
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	r, ok := ep.drops[env.From]
	if !ok {
		return false
	}
	return r.rate >= 1 || r.rng.Float64() < r.rate
}

// send transmits one envelope, counted as Stats describes.
func (ep *Endpoint) send(env Envelope, to *net.UDPAddr) error {
	b := env.Encode()
	ep.countOut(1, len(b))
	if _, err := ep.conn.WriteToUDP(b, to); err != nil {
		ep.countOut(-1, -len(b))
		return err
	}
	return nil
}

// countOut adds msgs messages of size bytes to the egress counters.
func (ep *Endpoint) countOut(msgs, size int) {
	ep.msgsOut.Add(int64(msgs))
	ep.bytesOut.Add(int64(size))
}

// Request sends one request envelope and waits for its response (matched
// by MsgID through the inflight-waiter map) for at most the endpoint's
// Timeout. On deadline it returns ErrTimeout — indistinguishable, as in
// any real network, from the request or the response having been lost.
func (ep *Endpoint) Request(to *net.UDPAddr, t Type, payload []byte) (Envelope, error) {
	return ep.RequestTimeout(to, t, payload, ep.timeout())
}

// RequestTimeout is Request with an explicit per-attempt deadline. A
// request whose payload exceeds the datagram ceiling automatically rides
// the stream framing instead (same request API, same timeout semantics).
func (ep *Endpoint) RequestTimeout(to *net.UDPAddr, t Type, payload []byte, d time.Duration) (Envelope, error) {
	if HeaderSize+len(payload) > MaxDatagram {
		return ep.requestStream(to, t, payload, d)
	}
	id := ep.nextMsgID.Add(1)
	ch := make(chan Envelope, 1)
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return Envelope{}, ErrClosed
	}
	ep.inflight[id] = ch
	ep.mu.Unlock()

	env := Envelope{Ver: Version, Type: t, From: ep.id, MsgID: id, Size: uint32(len(payload)), Payload: payload}
	if err := ep.send(env, to); err != nil {
		ep.abandon(id)
		return Envelope{}, err
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			return Envelope{}, ErrClosed
		}
		if resp.Type == TErr {
			return resp, fmt.Errorf("wire: remote error: %s", resp.Payload)
		}
		return resp, nil
	case <-timer.C:
		ep.abandon(id)
		return Envelope{}, fmt.Errorf("%w: type %d to %s", ErrTimeout, t, to)
	}
}

// RequestRetry retransmits a request up to 1+retries times. Waiting is
// how a real sender discovers loss, so each failed attempt costs a full
// per-attempt deadline before the next transmission — the wall-clock
// counterpart of arch.Retry's RTO accounting. Between attempts the
// sender additionally backs off with the same shape as arch.RTO: a base
// delay doubled per consecutive failure, ±25% jitter drawn from the
// endpoint's seeded xrand stream, capped — so a cluster of endpoints
// retrying against one restarting node desynchronizes instead of
// re-converging into a retry storm at the shared timeout boundary.
func (ep *Endpoint) RequestRetry(to *net.UDPAddr, t Type, payload []byte, retries int) (Envelope, error) {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		resp, err := ep.RequestTimeout(to, t, payload, ep.timeout())
		if err == nil || !errors.Is(err, ErrTimeout) {
			return resp, err
		}
		lastErr = err
		if attempt < retries {
			time.Sleep(ep.retryBackoff(attempt))
		}
	}
	return Envelope{}, lastErr
}

// retryBackoff returns the pre-retransmission delay after consecutive
// failure number attempt (0-based): base<<attempt with ±25% jitter,
// capped after jitter so the ceiling is a true ceiling (arch.RTO.Penalty
// semantics on real sockets).
func (ep *Endpoint) retryBackoff(attempt int) time.Duration {
	base, max := ep.RetryBase, ep.RetryMax
	if base <= 0 {
		base = ep.timeout() / 2
	}
	if max <= 0 {
		max = 4 * ep.timeout()
	}
	d := base
	if attempt >= 63 {
		d = max
	} else if d <<= uint(attempt); d > max || d <= 0 {
		d = max
	}
	ep.retryMu.Lock()
	jitter := 0.75 + 0.5*ep.retryRng.Float64()
	ep.retryMu.Unlock()
	p := time.Duration(float64(d) * jitter)
	if p > max {
		p = max
	}
	return p
}

// abandon removes a waiter that timed out or failed to send.
func (ep *Endpoint) abandon(id uint64) {
	ep.mu.Lock()
	delete(ep.inflight, id)
	ep.mu.Unlock()
}

func (ep *Endpoint) timeout() time.Duration {
	if ep.Timeout > 0 {
		return ep.Timeout
	}
	return DefaultRequestTimeout
}
