// Package wire is the real-socket layer of the repository: a versioned
// message envelope and a UDP endpoint built around an inflight-waiter map
// (requests matched to responses by MsgID, a non-blocking read loop
// dispatching everything else to a handler), with a TCP stream framing
// on the same port for payloads past the datagram ceiling. passd nodes
// and the cluster harness speak it; the cost models run on netsim.
//
// The envelope is deliberately minimal: version, message type, flags,
// sender ID, a monotonically increasing per-endpoint MsgID, the payload
// size, and an opaque payload. Verb semantics (put/get/query,
// digest deltas, control-plane drops) live in the node package; the
// cluster harness speaks the same envelopes as a client.
//
// # Fault injection on real sockets
//
// Simulated networks can drop a message by fiat; a real transport needs
// a mechanism. Endpoints carry per-peer drop rules (SetDrop): a seeded
// deterministic probability applied to matching datagrams as they
// arrive, BEFORE dispatch — the datagram crossed the wire and is then
// discarded, exactly like in-network loss, and the sender discovers it
// the only way a real sender can: its retransmission timer expires. The
// cluster harness partitions live processes by installing rate-1.0 drop
// rules on both sides of the cut, and injects E14-style packet loss by
// seeding sub-1.0 rules.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the wire protocol version; envelopes carrying any other
// version are rejected at decode.
const Version = 1

// HeaderSize is the encoded envelope header length in bytes.
const HeaderSize = 19

// MaxDatagram bounds one UDP datagram (loopback supports more, but
// staying under typical OS defaults keeps the transport honest).
const MaxDatagram = 60000

// MaxStreamPayload bounds one stream-framed (TCP) request or response
// payload — the fallback for verbs whose payloads exceed the datagram
// ceiling (view snapshots, recovery bucket transfers). Bounded so a
// corrupt length prefix cannot ask the receiver to allocate the moon.
const MaxStreamPayload = 64 << 20

// Type discriminates envelope meaning. Requests and responses are
// distinct types; a response additionally carries FlagResponse and the
// request's MsgID so the sender's inflight-waiter map can match it.
type Type uint8

// Node-verb message types. Values 1 and 2 are unassigned.
const (
	// Client verbs served by a passd node.
	TPut     Type = 10 // payload: encoded provenance record
	TPutOK   Type = 11 // payload: record ID
	TGet     Type = 12 // payload: record ID
	TGetOK   Type = 13 // payload: encoded record
	TQuery   Type = 14 // payload: attr key \x00 canonical value
	TQueryOK Type = 15 // payload: concatenated record IDs

	// Inter-node verbs.
	TDelta    Type = 16 // payload: encoded siteview delta
	TDeltaAck Type = 17
	TFetch    Type = 18 // payload: record ID (serve from local/replica stores)
	TFetchOK  Type = 19 // payload: encoded record
	TAttrQ    Type = 20 // payload: attr key \x00 canonical value (local answer only)
	TAttrQOK  Type = 21 // payload: concatenated record IDs
	TStore    Type = 22 // payload: dht placement list (node.decodeStore), or one legacy JSON placement
	TStoreOK  Type = 23
	TPing     Type = 24
	TPong     Type = 25

	// Recovery verbs (restart catch-up; responses routinely exceed the
	// UDP ceiling and ride the stream framing automatically).
	TSnap      Type = 26 // payload: none; response: encoded siteview.View
	TSnapOK    Type = 27
	TRecover   Type = 28 // payload: 4-byte seat ID; response: dht placement list
	TRecoverOK Type = 29

	// Control plane (the cluster harness drives these).
	TTick    Type = 30 // run one maintenance round (gossip / ping+replicate)
	TTickOK  Type = 31
	TDrop    Type = 32 // payload: JSON drop rules
	TDropOK  Type = 33
	TStat    Type = 34 // payload: none; response: JSON node status
	TStatOK  Type = 35
	TPeers   Type = 36 // payload: JSON peer roster
	TPeersOK Type = 37

	// TErr is the generic failure response; payload is the error text.
	TErr Type = 40
)

// Envelope flags.
const (
	// FlagResponse marks an envelope answering a request with the same
	// MsgID; the read loop routes it to the inflight waiter instead of
	// the handler.
	FlagResponse uint8 = 1 << 0
	// FlagLost marks a poisoned frame: the bytes cross the socket (the
	// bandwidth was spent) but the receiving endpoint discards it
	// unacknowledged, so the sender observes exactly what in-network
	// loss looks like. No sender in the tree sets it today; the receive
	// side's discard is the hook for a loss-injecting sender.
	FlagLost uint8 = 1 << 1
)

// Envelope is one wire message.
type Envelope struct {
	Ver   uint8
	Type  Type
	Flags uint8
	From  int32 // sender's site/node ID (clients use IDs past the node range)
	MsgID uint64
	// Size is the declared payload size; senders set it to len(Payload).
	Size    uint32
	Payload []byte
}

// ErrBadEnvelope is returned for short, corrupt, or wrong-version frames.
var ErrBadEnvelope = errors.New("wire: bad envelope")

// Encode marshals the envelope into a fresh buffer.
func (e Envelope) Encode() []byte {
	buf := make([]byte, HeaderSize+len(e.Payload))
	buf[0] = Version
	buf[1] = byte(e.Type)
	buf[2] = e.Flags
	binary.LittleEndian.PutUint32(buf[3:], uint32(e.From))
	binary.LittleEndian.PutUint64(buf[7:], e.MsgID)
	binary.LittleEndian.PutUint32(buf[15:], e.Size)
	copy(buf[HeaderSize:], e.Payload)
	return buf
}

// Decode parses one datagram. The returned envelope's Payload aliases
// data; callers that retain it past the read buffer's reuse must copy.
func Decode(data []byte) (Envelope, error) {
	if len(data) < HeaderSize {
		return Envelope{}, fmt.Errorf("%w: %d bytes", ErrBadEnvelope, len(data))
	}
	if data[0] != Version {
		return Envelope{}, fmt.Errorf("%w: version %d", ErrBadEnvelope, data[0])
	}
	return Envelope{
		Ver:     data[0],
		Type:    Type(data[1]),
		Flags:   data[2],
		From:    int32(binary.LittleEndian.Uint32(data[3:])),
		MsgID:   binary.LittleEndian.Uint64(data[7:]),
		Size:    binary.LittleEndian.Uint32(data[15:]),
		Payload: data[HeaderSize:],
	}, nil
}
