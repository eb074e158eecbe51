package hier

import (
	"testing"

	"pass/internal/arch/archtest"
	"pass/internal/arch/scenario"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// Name-path resolution (nameHome) makes Lookup and ancestry border hops
// O(1) in the server count; the seed probed every server per record,
// which made 10k-server sweeps intractable (ROADMAP scale item).

func scaleModel(tb testing.TB, nSites int) (*netsim.Network, []netsim.SiteID, *Model) {
	tb.Helper()
	net, sites := netsim.RandomTopology(netsim.Config{}, nSites/4, 4, 13)
	m, err := New(net, sites, []string{provenance.KeyZone, provenance.KeySensorClass})
	if err != nil {
		tb.Fatal(err)
	}
	return net, sites, m
}

func TestLookupResolvesNamePathNotProbing(t *testing.T) {
	net, sites, m := scaleModel(t, 100)
	p := archtest.PubAt(1, sites[42], provenance.Attr(provenance.KeyZone, provenance.String("z")))
	if _, err := m.Publish(p); err != nil {
		t.Fatal(err)
	}
	net.ResetStats()
	rec, _, err := m.Lookup(sites[7], p.ID)
	if err != nil || rec.ComputeID() != p.ID {
		t.Fatalf("lookup: %v", err)
	}
	if msgs := net.Stats().Messages; msgs != 2 {
		t.Fatalf("lookup cost %d messages, want 2 (name-path routing)", msgs)
	}
}

func TestAncestryHopsAreBoundedByChainNotServers(t *testing.T) {
	net, sites, m := scaleModel(t, 100)
	const depth = 8
	ids := archtest.ChainAt(t, m, sites[:4], depth, 50)
	net.ResetStats()
	anc, _, err := m.QueryAncestors(sites[90], ids[depth-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != depth-1 {
		t.Fatalf("ancestors = %d, want %d", len(anc), depth-1)
	}
	// One traversal Call (2 messages) per visited record, regardless of
	// the 100 servers; the seed's probe loop would have cost ~100 calls
	// per record.
	if msgs := net.Stats().Messages; msgs > int64(depth*2) {
		t.Fatalf("ancestry cost %d messages for depth %d; probing is back", msgs, depth)
	}
}

// BenchmarkLookupAtScale exercises the name-directory lookup path at a
// server count where probing would pay thousands of calls per lookup.
func BenchmarkLookupAtScale(b *testing.B) {
	for _, nSites := range []int{100, 2000} {
		b.Run(map[int]string{100: "servers=100", 2000: "servers=2000"}[nSites], func(b *testing.B) {
			_, sites, m := scaleModel(b, nSites)
			ids := make([]provenance.ID, 64)
			for i := range ids {
				p := scenario.PubN(i, sites[(i*31)%len(sites)],
					provenance.Attr(provenance.KeyZone, provenance.String("z")))
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
