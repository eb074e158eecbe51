package provenance

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode covers the record decoder every put payload, WAL record and
// snapshot record goes through. No input may panic, no count field may
// reserve more entries than the payload could hold, and an accepted
// record's canonical encoding is a fixed point: decoding it and encoding
// again gives the same bytes.
func FuzzDecode(f *testing.F) {
	rec, _, err := NewRaw([32]byte{1, 2}, 64).
		Attrs(
			Attr("n", Int64(70000)),
			Attr(KeyDomain, String("traffic")),
			Attr("f", Float(2.5)),
			Attr("b", BytesVal([]byte{0x80, 0xff})),
		).
		CreatedAt(7).
		Build()
	if err != nil {
		f.Fatal(err)
	}
	enc := rec.Encode()
	f.Add(enc)
	for _, cut := range []int{1, 34, 35, len(enc) / 2, len(enc) - 1} {
		f.Add(enc[:cut])
	}
	// A parent count of 2^59, whose byte size wraps to zero in 64 bits.
	hostile := append([]byte{recordVersion, byte(Raw)}, make([]byte, 32)...)
	hostile = append(hostile, 0, 0) // data size, no attributes
	f.Add(binary.AppendUvarint(hostile, 1<<59))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := Decode(b)
		if err != nil {
			return
		}
		if cap(r.Attributes) > len(b) || len(r.Parents)*32 > len(b) {
			t.Fatalf("reserved %d attributes and %d parents for a %d-byte record", cap(r.Attributes), len(r.Parents), len(b))
		}
		canon := r.Encode()
		again, err := Decode(canon)
		if err != nil {
			t.Fatalf("canonical encoding %x does not decode: %v", canon, err)
		}
		if got := again.Encode(); !bytes.Equal(got, canon) {
			t.Fatalf("canonical encoding is not a fixed point:\n got %x\nwant %x", got, canon)
		}
	})
}
