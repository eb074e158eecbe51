package feddb

import (
	"testing"

	"pass/internal/arch/archtest"
	"pass/internal/arch/scenario"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// The mediator catalog makes Lookup O(1) in the federation size; the seed
// implementation probed ≈ n/2 components per lookup, which dominated host
// time past 1,000 sites (ROADMAP scale item).

func TestLookupUsesCatalogNotProbing(t *testing.T) {
	net, sites := netsim.RandomTopology(netsim.Config{}, 25, 4, 7) // 100 components
	m := New(net, sites, 0)
	p := archtest.PubAt(1, sites[77])
	if _, err := m.Publish(p); err != nil {
		t.Fatal(err)
	}
	net.ResetStats()
	rec, _, err := m.Lookup(sites[3], p.ID)
	if err != nil || rec.ComputeID() != p.ID {
		t.Fatalf("lookup: %v", err)
	}
	// One catalog-routed Call = 2 messages, independent of the 100
	// components (probing would have cost ~156).
	if msgs := net.Stats().Messages; msgs != 2 {
		t.Fatalf("lookup cost %d messages, want 2 (catalog routing)", msgs)
	}
	// An unknown record is refused without touching the network.
	net.ResetStats()
	var ghost provenance.ID
	ghost[5] = 0xAA
	if _, _, err := m.Lookup(sites[3], ghost); err == nil {
		t.Fatal("ghost lookup succeeded")
	}
	if msgs := net.Stats().Messages; msgs != 0 {
		t.Fatalf("ghost lookup cost %d messages, want 0", msgs)
	}
}

// BenchmarkLookupAtScale exercises the indexed lookup path at a site count
// where the seed's probe loop would pay thousands of calls per lookup.
func BenchmarkLookupAtScale(b *testing.B) {
	for _, nSites := range []int{100, 2000} {
		b.Run(map[int]string{100: "sites=100", 2000: "sites=2000"}[nSites], func(b *testing.B) {
			net, sites := netsim.RandomTopology(netsim.Config{}, nSites/4, 4, 11)
			m := New(net, sites, 0)
			ids := make([]provenance.ID, 64)
			for i := range ids {
				p := scenario.PubN(i, sites[(i*31)%len(sites)])
				if _, err := m.Publish(p); err != nil {
					b.Fatal(err)
				}
				ids[i] = p.ID
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.Lookup(sites[i%len(sites)], ids[i%len(ids)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
