package siteview

import (
	"bytes"
	"testing"

	"pass/internal/netsim"
	"pass/internal/provenance"
	"pass/internal/xrand"
)

// FuzzViewApply pins the delivery-order law the gossip layer relies on:
// applying a fixed multiset of deltas in ANY interleaving the transport
// can produce — per-origin order preserved (the outbox guarantee),
// arbitrary interleaving across origins, duplicates and stale
// re-deliveries injected anywhere — always converges to the same view
// content. Fingerprint equality is the oracle; Applied/Ignored verify
// the duplicates really were offered and dropped rather than never
// generated.
func FuzzViewApply(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 0x81, 2, 1, 0})
	f.Add(uint64(7), []byte{2, 2, 2, 0, 0x80, 1})
	f.Add(uint64(42), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, order []byte) {
		const origins = 3
		rng := xrand.New(seed)

		// The delta multiset: per origin, a chain of 1–4 sequenced deltas
		// with deterministic ids and attribute keys (some keys shared
		// across origins so the inverted index accumulates multi-site
		// postings).
		deltas := make([][]*Delta, origins)
		for o := 0; o < origins; o++ {
			n := 1 + rng.Intn(4)
			for seq := 1; seq <= n; seq++ {
				var ids []provenance.ID
				for k := 0; k < 1+rng.Intn(3); k++ {
					var id provenance.ID
					id[0], id[1], id[2] = byte(o), byte(seq), byte(k)
					id[3] = byte(rng.Intn(256))
					ids = append(ids, id)
				}
				keys := []string{
					"zone\x00" + string(rune('a'+o)),
					"shared\x00v",
					"seq\x00" + string(rune('0'+seq)),
				}
				deltas[o] = append(deltas[o],
					NewDelta(netsim.SiteID(o), uint64(seq), ids, keys))
			}
		}

		// Reference: strict origin-by-origin, in-order application.
		ref := NewView(netsim.SiteID(99))
		for o := 0; o < origins; o++ {
			for _, d := range deltas[o] {
				if !ref.Apply(d) {
					t.Fatalf("reference application rejected origin %d seq %d", o, d.Seq)
				}
			}
		}

		// Fuzzed interleaving: each input byte picks an origin; the low
		// bits choose which origin's stream advances, the high bit turns
		// the step into a duplicate/stale re-delivery of something that
		// origin already applied. Per-origin order is preserved — exactly
		// the transport's guarantee.
		got := NewView(netsim.SiteID(99))
		next := make([]int, origins)
		dups := 0
		for _, b := range order {
			o := int(b % origins)
			if b&0x80 != 0 && next[o] > 0 {
				// Re-deliver a delta this origin already applied; must be
				// ignored without changing anything.
				stale := deltas[o][rng.Intn(next[o])]
				fpBefore := got.Fingerprint()
				if got.Apply(stale) {
					t.Fatalf("stale re-delivery of origin %d seq %d was applied", o, stale.Seq)
				}
				if got.Fingerprint() != fpBefore {
					t.Fatalf("ignored duplicate changed the view content")
				}
				dups++
				continue
			}
			if next[o] < len(deltas[o]) {
				if !got.Apply(deltas[o][next[o]]) {
					t.Fatalf("in-order delta origin %d seq %d rejected", o, next[o]+1)
				}
				next[o]++
			}
		}
		// Drain whatever the fuzz input did not deliver.
		for o := 0; o < origins; o++ {
			for ; next[o] < len(deltas[o]); next[o]++ {
				if !got.Apply(deltas[o][next[o]]) {
					t.Fatalf("drain delta origin %d seq %d rejected", o, next[o]+1)
				}
			}
		}

		if got.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("fingerprint diverged: interleaved %x vs reference %x (seed %d, order %v)",
				got.Fingerprint(), ref.Fingerprint(), seed, order)
		}
		if got.Locations() != ref.Locations() {
			t.Fatalf("locations diverged: %d vs %d", got.Locations(), ref.Locations())
		}
		for o := 0; o < origins; o++ {
			if got.Seq(netsim.SiteID(o)) != ref.Seq(netsim.SiteID(o)) {
				t.Fatalf("origin %d seq diverged: %d vs %d",
					o, got.Seq(netsim.SiteID(o)), ref.Seq(netsim.SiteID(o)))
			}
		}
		if got.Ignored() != int64(dups) {
			t.Fatalf("ignored = %d, want the %d injected duplicates", got.Ignored(), dups)
		}
	})
}

// FuzzDecodeView covers the view decoder every snapshot load and TSnap
// catch-up pull goes through. No input may panic, no count field may
// reserve more entries than the payload could hold (DecodeView checks
// each against the remaining bytes before it sizes a map), and every
// frame accepted re-encodes to exactly its input.
func FuzzDecodeView(f *testing.F) {
	full, _ := buildTestView(f).Encode()
	empty, _ := NewView(3).Encode()
	for _, fr := range [][]byte{full, empty} {
		f.Add(fr)
		for _, cut := range []int{1, 2, 3, len(fr) / 2, len(fr) - 1} {
			if cut < len(fr) {
				f.Add(fr[:cut])
			}
		}
	}
	f.Add([]byte(`{"owner":1}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := DecodeView(b)
		if err != nil {
			return
		}
		if v.Locations()*minLocEntry > len(b) || len(v.attrSites)*minAttrEntry > len(b) {
			t.Fatalf("decoded %d locations and %d keys from %d bytes", v.Locations(), len(v.attrSites), len(b))
		}
		got, err := v.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("accepted frame does not round-trip:\n got %x\nwant %x", got, b)
		}
	})
}
