package node

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"pass/internal/arch/siteview"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// Passnet gossip travels, and is logged, as a delta frame: one origin's
// run of siteview deltas. The TDelta payload, the body of a 'd' WAL
// record and a snapshot's retained own deltas are all the same frame.
//
//	frame = 0x01 origin:int32-LE count:uvarint delta*count
//	delta = seq:uvarint nids:uvarint id:[32]byte*nids nkeys:uvarint key*nkeys
//	key   = len:uvarint bytes
//
// Sequence numbers are strictly ascending within a frame, and each
// delta's keys are strictly ascending (NewDelta's order), so a decoded
// delta is exactly the one encoded. Keys are raw bytes: a canonical
// attribute value is binary and must arrive unaltered, or a query
// through a peer misses its record.
//
// The leading version byte keeps a frame from ever starting with '{': a
// payload that does is the single JSON delta TDelta carried before
// frames, still accepted as a frame of one (hand-written clients send
// it, and logs written before the change hold it).
const deltaFrameV1 byte = 0x01

// minDelta is the smallest encoded delta (a sequence number and two
// empty lists): the decoder never reserves more deltas than the payload
// could hold at this size, whatever the count field says.
const minDelta = 3

var errBadDelta = errors.New("delta: bad delta frame")

// legacyDelta is the single-delta JSON object, decoded only.
type legacyDelta struct {
	Origin int32    `json:"origin"`
	Seq    uint64   `json:"seq"`
	IDs    [][]byte `json:"ids"`
	Attrs  []string `json:"attrs"`
}

// appendDeltas appends the frame encoding of ds, all from origin, to dst.
func appendDeltas(dst []byte, origin int32, ds []*siteview.Delta) []byte {
	dst = append(dst, deltaFrameV1)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(origin))
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	for _, d := range ds {
		dst = binary.AppendUvarint(dst, d.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(d.IDs)))
		for _, id := range d.IDs {
			dst = append(dst, id[:]...)
		}
		dst = binary.AppendUvarint(dst, uint64(len(d.AttrKeys)))
		for _, k := range d.AttrKeys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
		}
	}
	return dst
}

// decodeDeltas parses a delta frame (or a legacy JSON delta). It accepts
// only canonical frames — minimal varints, ascending sequence numbers
// and keys, no trailing bytes — so every frame it accepts re-encodes to
// exactly the bytes it was given.
func decodeDeltas(b []byte) ([]*siteview.Delta, error) {
	if len(b) == 0 {
		return nil, errBadDelta
	}
	if b[0] == '{' {
		var wd legacyDelta
		if err := json.Unmarshal(b, &wd); err != nil {
			return nil, fmt.Errorf("delta: %w", err)
		}
		ids := make([]provenance.ID, len(wd.IDs))
		for i, idb := range wd.IDs {
			if len(idb) != len(ids[i]) {
				return nil, fmt.Errorf("%w: %d-byte id", errBadDelta, len(idb))
			}
			copy(ids[i][:], idb)
		}
		return []*siteview.Delta{siteview.NewDelta(netsim.SiteID(wd.Origin), wd.Seq, ids, wd.Attrs)}, nil
	}
	if b[0] != deltaFrameV1 {
		return nil, fmt.Errorf("%w: version %d", errBadDelta, b[0])
	}
	if len(b) < 5 {
		return nil, errBadDelta
	}
	origin := netsim.SiteID(int32(binary.LittleEndian.Uint32(b[1:5])))
	b = b[5:]
	count, err := uvarint(&b)
	if err != nil {
		return nil, err
	}
	ds := make([]*siteview.Delta, 0, min(count, uint64(len(b)/minDelta)))
	for i := uint64(0); i < count; i++ {
		seq, err := uvarint(&b)
		if err != nil {
			return nil, err
		}
		if i > 0 && seq <= ds[len(ds)-1].Seq {
			return nil, fmt.Errorf("%w: sequence numbers out of order", errBadDelta)
		}
		nids, err := uvarint(&b)
		if err != nil {
			return nil, err
		}
		if nids > uint64(len(b)/len(provenance.ID{})) {
			return nil, errBadDelta
		}
		ids := make([]provenance.ID, nids)
		for j := range ids {
			copy(ids[j][:], b)
			b = b[len(ids[j]):]
		}
		nkeys, err := uvarint(&b)
		if err != nil {
			return nil, err
		}
		keys := make([]string, 0, min(nkeys, uint64(len(b))))
		for j := uint64(0); j < nkeys; j++ {
			kb, err := lengthPrefixed(&b)
			if err != nil {
				return nil, err
			}
			if j > 0 && string(kb) <= keys[len(keys)-1] {
				return nil, fmt.Errorf("%w: keys out of order", errBadDelta)
			}
			keys = append(keys, string(kb))
		}
		ds = append(ds, siteview.NewDelta(origin, seq, ids, keys))
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadDelta, len(b))
	}
	return ds, nil
}
