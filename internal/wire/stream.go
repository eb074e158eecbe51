package wire

// Stream framing: the TCP fallback for payloads that exceed the UDP
// datagram ceiling. Every endpoint listens on TCP at the SAME port its
// UDP socket bound, so a peer's UDP address is also its stream address.
// Frames are length-prefixed envelopes:
//
//	frame := len u32 | envelope (header + payload)
//
// The request API stays the Endpoint's: RequestTimeout transparently
// switches to the stream when the request payload cannot ride a
// datagram, and callers expecting an oversize RESPONSE (view snapshots,
// recovery bucket transfers) use RequestStream explicitly — the
// requester knows the verb, the transport does not. Ingress drop rules
// apply to stream frames exactly as to datagrams: the frame crossed the
// wire, is discarded before dispatch, and the sender discovers the loss
// by its read deadline expiring — same physics, different framing.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// streamIdleTimeout bounds how long a server-side stream connection may
// sit between frames before the endpoint closes it.
const streamIdleTimeout = 30 * time.Second

// writeFrame writes one length-prefixed envelope.
func writeFrame(w io.Writer, env Envelope) error {
	b := env.Encode()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readFrame reads one length-prefixed envelope. The returned envelope's
// payload is freshly allocated (no buffer aliasing across frames).
func readFrame(r io.Reader) (Envelope, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Envelope{}, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < HeaderSize || n > MaxStreamPayload+HeaderSize {
		return Envelope{}, 0, fmt.Errorf("%w: stream frame of %d bytes", ErrBadEnvelope, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Envelope{}, 0, err
	}
	env, err := Decode(buf)
	return env, int(n) + 4, err
}

// serveStream accepts stream connections for the endpoint's lifetime.
func (ep *Endpoint) serveStream(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go ep.serveStreamConn(conn)
	}
}

// serveStreamConn drains one inbound stream connection: frames are
// decoded, run through the same drop rules as datagrams, and dispatched
// to the handler; replies are written back on the same connection (a
// per-connection mutex serializes concurrent handler replies).
func (ep *Endpoint) serveStreamConn(conn net.Conn) {
	defer conn.Close()
	var wmu sync.Mutex
	for {
		_ = conn.SetReadDeadline(time.Now().Add(streamIdleTimeout))
		env, n, err := readFrame(conn)
		if err != nil {
			return
		}
		ep.msgsIn.Add(1)
		ep.bytesIn.Add(int64(n))
		if ep.shouldDrop(env) {
			// Discarded AFTER crossing the wire, like a dropped datagram:
			// no reply, and the requester's deadline does the telling.
			ep.dropped.Add(1)
			continue
		}
		if env.Flags&FlagResponse != 0 {
			continue // stream responses pair synchronously in requestStream
		}
		hp := ep.handler.Load()
		if hp == nil {
			continue
		}
		h := *hp
		go h(env, nil, func(t Type, payload []byte) {
			resp := Envelope{
				Ver: Version, Type: t, Flags: FlagResponse,
				From: ep.id, MsgID: env.MsgID,
				Size: uint32(len(payload)), Payload: payload,
			}
			size := HeaderSize + 4 + len(payload)
			wmu.Lock()
			defer wmu.Unlock()
			ep.countOut(1, size)
			if err := writeFrame(conn, resp); err != nil {
				ep.countOut(-1, -size)
			}
		})
	}
}

// RequestStream sends one request over a fresh stream connection and
// waits for its framed response — the explicit path for verbs whose
// RESPONSE may exceed the datagram ceiling (the requester knows the
// verb; the transport cannot). RequestTimeout calls it automatically
// when the request payload itself is oversize.
func (ep *Endpoint) RequestStream(to *net.UDPAddr, t Type, payload []byte) (Envelope, error) {
	return ep.requestStream(to, t, payload, ep.timeout())
}

func (ep *Endpoint) requestStream(to *net.UDPAddr, t Type, payload []byte, d time.Duration) (Envelope, error) {
	ep.mu.Lock()
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return Envelope{}, ErrClosed
	}
	if len(payload) > MaxStreamPayload {
		return Envelope{}, fmt.Errorf("%w: %d-byte stream payload", ErrBadEnvelope, len(payload))
	}
	addr := net.JoinHostPort(to.IP.String(), fmt.Sprint(to.Port))
	deadline := time.Now().Add(d)
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return Envelope{}, fmt.Errorf("%w: stream dial %s: %v", ErrTimeout, addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(deadline)
	id := ep.nextMsgID.Add(1)
	env := Envelope{Ver: Version, Type: t, From: ep.id, MsgID: id, Size: uint32(len(payload)), Payload: payload}
	size := HeaderSize + 4 + len(payload)
	ep.countOut(1, size)
	if err := writeFrame(conn, env); err != nil {
		ep.countOut(-1, -size)
		return Envelope{}, fmt.Errorf("%w: stream write to %s: %v", ErrTimeout, addr, err)
	}
	resp, n, err := readFrame(conn)
	if err != nil {
		if errors.Is(err, ErrBadEnvelope) {
			return Envelope{}, err
		}
		return Envelope{}, fmt.Errorf("%w: stream type %d to %s", ErrTimeout, t, addr)
	}
	ep.msgsIn.Add(1)
	ep.bytesIn.Add(int64(n))
	if resp.MsgID != id || resp.Flags&FlagResponse == 0 {
		return Envelope{}, fmt.Errorf("%w: mismatched stream response", ErrBadEnvelope)
	}
	if resp.Type == TErr {
		return resp, fmt.Errorf("wire: remote error: %s", resp.Payload)
	}
	return resp, nil
}
