package siteview

import (
	"encoding/binary"
	"runtime"
	"testing"

	"pass/internal/netsim"
	"pass/internal/provenance"
)

func mkID(b byte) provenance.ID {
	var id provenance.ID
	id[0] = b
	id[31] = ^b
	return id
}

// buildTestView applies a few origins' delta streams, including enough
// distinct attribute keys to force at least one filter rebuild.
func buildTestView(t testing.TB) *View {
	t.Helper()
	v := NewView(7)
	for origin := netsim.SiteID(1); origin <= 3; origin++ {
		for seq := uint64(1); seq <= 4; seq++ {
			keys := []string{
				"domain\x00sensors",
				"n\x00" + string(rune('a'+byte(origin))) + string(rune('a'+byte(seq))),
				// A binary canonical value, as an integer's is.
				"v\x00" + string([]byte{0x80, 0xff, byte(origin), byte(seq)}),
			}
			d := NewDelta(origin, seq, []provenance.ID{mkID(byte(origin)*16 + byte(seq))}, keys)
			if !v.Apply(d) {
				t.Fatalf("apply origin %d seq %d refused", origin, seq)
			}
		}
	}
	return v
}

func TestEncodeDecodeRoundTripPreservesContent(t *testing.T) {
	v := buildTestView(t)
	data, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeView(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner() != v.Owner() {
		t.Fatalf("owner %d != %d", got.Owner(), v.Owner())
	}
	if got.Fingerprint() != v.Fingerprint() {
		t.Fatalf("fingerprint changed across encode/decode: %x != %x", got.Fingerprint(), v.Fingerprint())
	}
	for origin := netsim.SiteID(1); origin <= 3; origin++ {
		if got.Seq(origin) != v.Seq(origin) {
			t.Fatalf("origin %d seq %d != %d", origin, got.Seq(origin), v.Seq(origin))
		}
	}
	if got.Locations() != v.Locations() {
		t.Fatalf("locations %d != %d", got.Locations(), v.Locations())
	}
	// The rebuilt filters keep the no-false-negatives guarantee: every
	// exact-index site must remain a candidate.
	for _, key := range []string{"domain\x00sensors"} {
		exact := v.SitesFor(key)
		cands := map[netsim.SiteID]bool{}
		for _, s := range got.CandidatesFor(key) {
			cands[s] = true
		}
		for _, s := range exact {
			if !cands[s] {
				t.Fatalf("decoded view lost site %d for key %q", s, key)
			}
		}
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	v := buildTestView(t)
	a, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two Encode calls on the same view differ")
	}
}

// TestDecodedViewKeepsApplying pins the recovery contract: a view
// restored from a snapshot must keep accepting the next in-sequence
// delta from every origin, and keep refusing replays.
func TestDecodedViewKeepsApplying(t *testing.T) {
	v := buildTestView(t)
	data, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeView(data)
	if err != nil {
		t.Fatal(err)
	}
	replay := NewDelta(1, 4, []provenance.ID{mkID(0x14)}, []string{"domain\x00sensors"})
	if got.Apply(replay) {
		t.Fatal("decoded view accepted an already-applied sequence number")
	}
	next := NewDelta(1, 5, []provenance.ID{mkID(0x15)}, []string{"domain\x00sensors"})
	if !got.Apply(next) {
		t.Fatal("decoded view refused the next in-sequence delta")
	}
}

// TestEncodeKeepsBinaryKeys: a key that is not valid UTF-8 comes back
// byte for byte, so a query for it still finds its sites.
func TestEncodeKeepsBinaryKeys(t *testing.T) {
	v := buildTestView(t)
	data, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeView(data)
	if err != nil {
		t.Fatal(err)
	}
	key := "v\x00" + string([]byte{0x80, 0xff, 2, 3})
	if s := got.SitesFor(key); len(s) != 1 || s[0] != 2 {
		t.Fatalf("decoded view has sites %v for a binary key, want [2]", s)
	}
	if !got.MayHold(2, key) {
		t.Fatal("decoded view's filter for origin 2 lost a binary key")
	}
}

func TestDecodeViewRejectsGarbage(t *testing.T) {
	if _, err := DecodeView([]byte("{not json")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := DecodeView([]byte(`{"owner":1,"locs":[{"id":"AAE=","home":2}]}`)); err == nil {
		t.Fatal("short location id accepted")
	}
	data, err := buildTestView(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeView(data[:cut]); err == nil {
			t.Fatalf("frame truncated to %d of %d bytes accepted", cut, len(data))
		}
	}
	if _, err := DecodeView(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("frame with a trailing byte accepted")
	}
	huge := binary.AppendUvarint(nil, 1<<62)
	id := make([]byte, 32)
	frames := [][]byte{
		append([]byte{viewFrameV1, 0}, huge...),                                          // 2^62 origins
		append([]byte{viewFrameV1, 0, 0}, huge...),                                       // 2^62 locations
		append([]byte{viewFrameV1, 0, 0, 0}, huge...),                                    // 2^62 keys
		append(append([]byte{viewFrameV1, 0, 0, 0, 1, 1, 'k'}, huge...), 0),              // 2^62 sites
		append([]byte{viewFrameV1, 0, 0, 0, 1}, huge...),                                 // key length 2^62
		{viewFrameV1, 0x80, 0x00, 0, 0, 0},                                               // non-minimal owner
		{viewFrameV1, 0, 2, 4, 1, 2, 1, 0, 0},                                            // origins descend
		{viewFrameV1, 0, 0, 0, 2, 1, 'b', 0, 1, 'a', 0},                                  // keys descend
		{viewFrameV1, 0, 0, 0, 1, 1, 'k', 2, 4, 2},                                       // sites descend
		append(append(append([]byte{viewFrameV1, 0, 0, 2}, id...), 0), append(id, 0)...), // a location twice
	}
	var before, after runtime.MemStats
	for _, f := range frames {
		runtime.ReadMemStats(&before)
		_, err := DecodeView(f)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("frame %x accepted", f)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 4096 {
			t.Errorf("frame %x (%d bytes) allocated %d bytes", f, len(f), d)
		}
	}
}

// TestEncodeDeltasMergesLikeApply: a view that applied a prefix of a
// delta stream, then merged the rest as one EncodeDeltas frame, holds
// what applying the whole stream gives — sequence numbers, the last
// home of a re-located record, and binary keys included.
func TestEncodeDeltasMergesLikeApply(t *testing.T) {
	var ds []*Delta
	for seq := uint64(1); seq <= 6; seq++ {
		for origin := netsim.SiteID(1); origin <= 2; origin++ {
			keys := []string{"v\x00" + string([]byte{0x80, byte(seq)}), "domain\x00d"}
			// Record 9 is re-homed by every delta: the last one wins.
			ids := []provenance.ID{mkID(byte(origin)*16 + byte(seq)), mkID(9)}
			ds = append(ds, NewDelta(origin, seq, ids, keys))
		}
	}
	want := NewView(7)
	got := NewView(7)
	for i, d := range ds {
		want.Apply(d)
		if i < 5 {
			got.Apply(d)
		}
	}
	if err := got.MergeEncoded(EncodeDeltas(7, ds[5:])); err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint %x after merging the frame, want %x", got.Fingerprint(), want.Fingerprint())
	}
	for origin := netsim.SiteID(1); origin <= 2; origin++ {
		if got.Seq(origin) != want.Seq(origin) {
			t.Fatalf("origin %d at seq %d, want %d", origin, got.Seq(origin), want.Seq(origin))
		}
	}
	if home, _ := got.Locate(mkID(9)); home != 2 {
		t.Fatalf("re-located record homed at %d, want 2", home)
	}
}
