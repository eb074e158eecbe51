package siteview

// Wire/disk encoding for whole Views. Two consumers need a View to leave
// its process: the real-node snapshot file (a durable passd node compacts
// its WAL into an encoded View so restart cost is bounded by the delta
// since the last snapshot) and the TSnap catch-up verb (a cold-booting
// node pulls one peer's View over the wire and Merges it). The encoding
// carries exactly the view's CONTENT — owner, per-origin sequence
// numbers, location entries, and the inverted attribute index. Per-origin
// Bloom filters are NOT serialized: the inverted index is the exact
// ground truth they are rebuilt from (the same rebuildFilter discipline a
// saturated filter already uses), which keeps the format free of
// filter-sizing drift and guarantees DecodeView(v.Encode()) has
// v's Fingerprint.
//
// The frame is binary, so attribute keys — whose canonical values are
// arbitrary bytes — travel unaltered:
//
//	view  = 0x01 owner:varint
//	        nseq:uvarint  (origin:varint seq:uvarint)*nseq
//	        nloc:uvarint  (id:[32]byte home:varint)*nloc
//	        nattr:uvarint (klen:uvarint key nsite:uvarint site:varint*nsite)*nattr
//
// Origins, IDs, keys and each key's sites are strictly ascending; varints
// are zigzag, and every varint and uvarint is minimal. The decoder
// accepts only that canonical form, with no trailing bytes, so every
// frame it accepts re-encodes to exactly its input; and it never
// reserves memory by a count field beyond what the remaining bytes could
// hold.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"pass/internal/netsim"
	"pass/internal/provenance"
)

const viewFrameV1 byte = 0x01

// Smallest encodings of one entry of each section: the decoder sizes no
// reservation beyond what the remaining payload could hold at these.
const (
	minSeqEntry  = 2
	minLocEntry  = len(provenance.ID{}) + 1
	minAttrEntry = 2
)

var errBadView = errors.New("siteview: bad view frame")

// Encode serializes the view's content (owner, sequence vector, location
// entries, inverted attribute index). Output is deterministic: entries
// are sorted, so two views with equal Fingerprints encode identically.
// The error is always nil; it stays in the signature for callers that
// treat encoding as fallible.
func (v *View) Encode() ([]byte, error) {
	origins := make([]netsim.SiteID, 0, len(v.seq))
	for origin := range v.seq {
		origins = append(origins, origin)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	ids := make([]provenance.ID, 0, len(v.loc))
	for id := range v.loc {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return lessID(ids[i], ids[j]) })
	keys := make([]string, 0, len(v.attrSites))
	size := 16 + len(origins)*(minSeqEntry+8) + len(ids)*(minLocEntry+1)
	for k := range v.attrSites {
		keys = append(keys, k)
		size += len(k) + 4
	}
	sort.Strings(keys)

	b := make([]byte, 0, size)
	b = append(b, viewFrameV1)
	b = binary.AppendVarint(b, int64(v.owner))
	b = binary.AppendUvarint(b, uint64(len(origins)))
	for _, origin := range origins {
		b = binary.AppendVarint(b, int64(origin))
		b = binary.AppendUvarint(b, v.seq[origin])
	}
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = append(b, id[:]...)
		b = binary.AppendVarint(b, int64(v.loc[id]))
	}
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
		sites := v.SitesFor(k)
		b = binary.AppendUvarint(b, uint64(len(sites)))
		for _, s := range sites {
			b = binary.AppendVarint(b, int64(s))
		}
	}
	return b, nil
}

// DecodeView reconstructs a View from Encode output. Per-origin filters
// are rebuilt from the inverted index exactly as rebuildFilter would, so
// the no-false-negatives guarantee holds and the decoded view's
// Fingerprint equals the encoded view's. The applied/ignored bookkeeping
// counters are not part of the content and restart at zero.
func DecodeView(data []byte) (*View, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty", errBadView)
	}
	if data[0] != viewFrameV1 {
		return nil, fmt.Errorf("%w: version %d", errBadView, data[0])
	}
	b := data[1:]
	owner, err := varint(&b)
	if err != nil {
		return nil, err
	}
	v := NewView(netsim.SiteID(owner))

	n, err := count(&b, minSeqEntry)
	if err != nil {
		return nil, err
	}
	var prevOrigin netsim.SiteID
	for i := 0; i < n; i++ {
		o, err := varint(&b)
		if err != nil {
			return nil, err
		}
		seq, err := uvarint(&b)
		if err != nil {
			return nil, err
		}
		origin := netsim.SiteID(o)
		if i > 0 && origin <= prevOrigin {
			return nil, fmt.Errorf("%w: origins out of order", errBadView)
		}
		v.seq[origin], prevOrigin = seq, origin
	}

	if n, err = count(&b, minLocEntry); err != nil {
		return nil, err
	}
	v.loc = make(map[provenance.ID]netsim.SiteID, n)
	var id, prevID provenance.ID
	for i := 0; i < n; i++ {
		if len(b) < len(id) {
			return nil, errBadView
		}
		copy(id[:], b)
		b = b[len(id):]
		if i > 0 && !lessID(prevID, id) {
			return nil, fmt.Errorf("%w: locations out of order", errBadView)
		}
		home, err := varint(&b)
		if err != nil {
			return nil, err
		}
		v.loc[id], prevID = netsim.SiteID(home), id
	}

	if n, err = count(&b, minAttrEntry); err != nil {
		return nil, err
	}
	v.attrSites = make(map[string]map[netsim.SiteID]struct{}, n)
	// Keys arrive ascending, so each origin's key list is built sorted.
	perOrigin := make(map[netsim.SiteID][]string)
	var prevKey []byte
	for i := 0; i < n; i++ {
		kb, err := lengthPrefixed(&b)
		if err != nil {
			return nil, err
		}
		if i > 0 && bytes.Compare(prevKey, kb) >= 0 {
			return nil, fmt.Errorf("%w: keys out of order", errBadView)
		}
		prevKey = kb
		key := string(kb)
		ns, err := count(&b, 1)
		if err != nil {
			return nil, err
		}
		set := make(map[netsim.SiteID]struct{}, ns)
		var prev netsim.SiteID
		for j := 0; j < ns; j++ {
			s, err := varint(&b)
			if err != nil {
				return nil, err
			}
			origin := netsim.SiteID(s)
			if j > 0 && origin <= prev {
				return nil, fmt.Errorf("%w: sites out of order", errBadView)
			}
			set[origin], prev = struct{}{}, origin
			perOrigin[origin] = append(perOrigin[origin], key)
		}
		v.attrSites[key] = set
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadView, len(b))
	}

	origins := make([]netsim.SiteID, 0, len(perOrigin))
	for origin := range perOrigin {
		origins = append(origins, origin)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, origin := range origins {
		v.addFilterKeys(origin, perOrigin[origin])
	}
	return v, nil
}

// uvarint consumes one minimally encoded uvarint from *b.
func uvarint(b *[]byte) (uint64, error) {
	v, n := binary.Uvarint(*b)
	if n <= 0 || (n > 1 && (*b)[n-1] == 0) {
		return 0, errBadView
	}
	*b = (*b)[n:]
	return v, nil
}

// varint consumes one minimally encoded zigzag varint from *b.
func varint(b *[]byte) (int64, error) {
	u, err := uvarint(b)
	return int64(u>>1) ^ -int64(u&1), err
}

// count consumes an entry count and checks it against the remaining
// bytes at the smallest entry size, so a hostile count fails before
// anything is reserved for it.
func count(b *[]byte, minEntry int) (int, error) {
	n, err := uvarint(b)
	if err != nil {
		return 0, err
	}
	if n > uint64(len(*b)/minEntry) {
		return 0, fmt.Errorf("%w: count %d exceeds the payload", errBadView, n)
	}
	return int(n), nil
}

// lengthPrefixed consumes a uvarint length and that many bytes from *b.
func lengthPrefixed(b *[]byte) ([]byte, error) {
	l, err := uvarint(b)
	if err != nil {
		return nil, err
	}
	if l > uint64(len(*b)) {
		return nil, errBadView
	}
	body := (*b)[:l:l]
	*b = (*b)[l:]
	return body, nil
}
