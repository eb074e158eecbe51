package node

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"testing"

	"pass/internal/arch"
)

// putFrames returns the per-seat frames a 3-seat dht put of the i-th
// test record would send, with every entry kind and role represented.
func putFrames(t testing.TB, i int) [][]byte {
	rec := testRecord(t, i, "frame")
	raw := rec.Encode()
	id := rec.ComputeID()
	var ps []placement
	for seat := int32(0); seat < 3; seat++ {
		ps = append(ps, placement{kind: kindRec, replica: seat > 0, src: 0, rec: raw})
	}
	for k, a := range arch.QueriableAttrs(rec) {
		ps = append(ps, placement{kind: kindAttr, replica: k%2 == 1, src: int32(k) - 1, mk: []byte(mkOf(a)), id: id})
	}
	return [][]byte{appendStore(nil, ps[:1]), appendStore(nil, ps), appendStore(nil, nil)}
}

func TestStoreFrameRoundTrip(t *testing.T) {
	for _, f := range putFrames(t, 3) {
		ps, err := decodeStore(f)
		if err != nil {
			t.Fatalf("decode own frame: %v", err)
		}
		if got := appendStore(nil, ps); !bytes.Equal(got, f) {
			t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", got, f)
		}
	}
}

// TestStoreLegacyJSON: the single-placement JSON object TStore carried
// before placement lists still decodes, as a list of one.
func TestStoreLegacyJSON(t *testing.T) {
	rec := testRecord(t, 4, "legacy")
	b, err := json.Marshal(legacyStore{Kind: "rec", Replica: true, Src: 2, Rec: rec.Encode()})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := decodeStore(b)
	if err != nil {
		t.Fatalf("decode legacy object: %v", err)
	}
	if len(ps) != 1 || ps[0].kind != kindRec || !ps[0].replica || ps[0].src != 2 || !bytes.Equal(ps[0].rec, rec.Encode()) {
		t.Fatalf("legacy object decoded as %+v", ps)
	}
	if _, err := decodeStore([]byte(`{"kind":"nope"}`)); err == nil {
		t.Fatal("legacy object of unknown kind accepted")
	}
}

// TestStoreHostileLengths: count and length fields claiming far more
// than the payload holds are refused without allocating for them.
func TestStoreHostileLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	frames := [][]byte{
		append([]byte{storeFrameV1}, huge...),                                             // count 2^62, no entries
		append(append([]byte{storeFrameV1, 1, kindRec, 0, 0, 0, 0, 0}, huge...), 1, 2, 3), // record length 2^62
		{storeFrameV1, 0x80, 0x00},                                                        // non-minimal count
		{storeFrameV1, 1, 3, 0, 0, 0, 0, 0, 0},                                            // unknown kind
		{storeFrameV1, 1, kindRec, 2, 0, 0, 0, 0, 0},                                      // replica byte 2
		{storeFrameV1, 0, 0},                                                              // trailing byte
		{'[', ']'},
		nil,
	}
	var before, after runtime.MemStats
	for _, f := range frames {
		runtime.ReadMemStats(&before)
		_, err := decodeStore(f)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("frame %x accepted", f)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 4096 {
			t.Errorf("frame %x (%d bytes) allocated %d bytes", f, len(f), d)
		}
	}
}

// FuzzDecodeStore covers every byte path into applyStoreLocked: TStore
// payloads, TRecoverOK payloads and 's' WAL records all go through
// decodeStore. No input may panic, the entry slice is never reserved
// beyond what the payload could hold, and every binary frame accepted
// re-encodes to exactly its input.
func FuzzDecodeStore(f *testing.F) {
	for _, fr := range putFrames(f, 7) {
		f.Add(fr)
		for _, cut := range []int{1, 2, 7, len(fr) / 2, len(fr) - 1} {
			if cut < len(fr) {
				f.Add(fr[:cut])
			}
		}
	}
	legacy, _ := json.Marshal(legacyStore{Kind: "attr", Src: 1, MK: []byte("k\x00v")})
	f.Add(legacy)
	f.Add(legacy[:len(legacy)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		ps, err := decodeStore(b)
		if err != nil {
			return
		}
		if b[0] == '{' {
			if len(ps) != 1 {
				t.Fatalf("legacy object decoded to %d placements", len(ps))
			}
			return
		}
		if cap(ps)*minEntry > len(b) {
			t.Fatalf("reserved %d entries for a %d-byte frame", cap(ps), len(b))
		}
		if got := appendStore(nil, ps); !bytes.Equal(got, b) {
			t.Fatalf("accepted frame does not round-trip:\n got %x\nwant %x", got, b)
		}
	})
}
