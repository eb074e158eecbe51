package node

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"pass/internal/provenance"
)

// A dht placement is one record or one attribute posting, placed as
// primary or replica. Src keys the replica bucket (the primary seat the
// copy shadows), matching the model's per-source replica buckets.
//
// Placements travel, and are logged, as a placement list: the TStore
// payload, the TRecoverOK payload and the body of an 's' WAL record are
// all the same frame.
//
//	frame   = 0x01 count:uvarint entry*count
//	entry   = kind:byte replica:byte src:int32-LE body
//	body    = len:uvarint record-bytes           (kind 1, a record)
//	        | len:uvarint mk-bytes id:[32]byte   (kind 2, a posting)
//
// The leading version byte keeps a binary frame from ever starting with
// '{': a payload that does is the single-placement JSON object TStore
// carried before placement lists, still accepted as a list of one (hand-
// written clients send it, and logs written before the change hold it).
type placement struct {
	kind    byte
	replica bool
	src     int32
	rec     []byte        // kindRec: encoded provenance record
	mk      []byte        // kindAttr: composite attribute key
	id      provenance.ID // kindAttr: the posted record
}

const (
	kindRec  byte = 1
	kindAttr byte = 2

	storeFrameV1 byte = 0x01

	// minEntry is the smallest encoded entry (a record entry with an
	// empty body): the decoder never reserves more entries than the
	// payload could hold at this size, whatever the count field says.
	minEntry = 1 + 1 + 4 + 1
)

var (
	errBadStore = errors.New("store: bad placement frame")
	// errBadFrame is the frame helpers' error: a varint or a length that
	// runs past the payload or is not minimally encoded.
	errBadFrame = errors.New("node: truncated or non-canonical frame")
)

// legacyStore is the single-placement JSON object, decoded only.
type legacyStore struct {
	Kind    string        `json:"kind"` // "rec" or "attr"
	Replica bool          `json:"replica"`
	Src     int32         `json:"src"`
	Rec     []byte        `json:"rec,omitempty"`
	MK      []byte        `json:"mk,omitempty"`
	ID      provenance.ID `json:"id,omitempty"`
}

// appendStore appends the frame encoding of ps to dst.
func appendStore(dst []byte, ps []placement) []byte {
	dst = append(dst, storeFrameV1)
	dst = binary.AppendUvarint(dst, uint64(len(ps)))
	for _, p := range ps {
		var replica byte
		if p.replica {
			replica = 1
		}
		dst = append(dst, p.kind, replica)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.src))
		if p.kind == kindRec {
			dst = binary.AppendUvarint(dst, uint64(len(p.rec)))
			dst = append(dst, p.rec...)
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(len(p.mk)))
		dst = append(dst, p.mk...)
		dst = append(dst, p.id[:]...)
	}
	return dst
}

// decodeStore parses a placement frame (or a legacy JSON object). Record
// and key bytes alias b. It accepts only canonical frames — minimal
// varints, replica 0 or 1, no trailing bytes — so every frame it accepts
// re-encodes to exactly the bytes it was given.
func decodeStore(b []byte) ([]placement, error) {
	if len(b) == 0 {
		return nil, errBadStore
	}
	if b[0] == '{' {
		var m legacyStore
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		p := placement{replica: m.Replica, src: m.Src, rec: m.Rec, mk: m.MK, id: m.ID}
		switch m.Kind {
		case "rec":
			p.kind = kindRec
		case "attr":
			p.kind = kindAttr
		default:
			return nil, fmt.Errorf("store: unknown kind %q", m.Kind)
		}
		return []placement{p}, nil
	}
	if b[0] != storeFrameV1 {
		return nil, fmt.Errorf("%w: version %d", errBadStore, b[0])
	}
	b = b[1:]
	count, err := uvarint(&b)
	if err != nil {
		return nil, err
	}
	ps := make([]placement, 0, min(count, uint64(len(b)/minEntry)))
	for i := uint64(0); i < count; i++ {
		if len(b) < 6 {
			return nil, errBadStore
		}
		p := placement{kind: b[0], replica: b[1] == 1, src: int32(binary.LittleEndian.Uint32(b[2:6]))}
		if b[1] > 1 || (p.kind != kindRec && p.kind != kindAttr) {
			return nil, errBadStore
		}
		b = b[6:]
		body, err := lengthPrefixed(&b)
		if err != nil {
			return nil, err
		}
		if p.kind == kindRec {
			p.rec = body
		} else {
			if len(b) < len(p.id) {
				return nil, errBadStore
			}
			p.mk = body
			copy(p.id[:], b)
			b = b[len(p.id):]
		}
		ps = append(ps, p)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadStore, len(b))
	}
	return ps, nil
}

// uvarint consumes one minimally encoded uvarint from *b.
func uvarint(b *[]byte) (uint64, error) {
	v, n := binary.Uvarint(*b)
	if n <= 0 || (n > 1 && (*b)[n-1] == 0) {
		return 0, errBadFrame
	}
	*b = (*b)[n:]
	return v, nil
}

// lengthPrefixed consumes a uvarint length and that many bytes from *b.
func lengthPrefixed(b *[]byte) ([]byte, error) {
	l, err := uvarint(b)
	if err != nil {
		return nil, err
	}
	if l > uint64(len(*b)) {
		return nil, errBadFrame
	}
	body := (*b)[:l:l]
	*b = (*b)[l:]
	return body, nil
}
