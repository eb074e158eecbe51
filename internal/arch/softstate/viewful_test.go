package softstate

import (
	"testing"

	"pass/internal/arch"
	"pass/internal/arch/scenario"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// TestViewfulIndexViewsConverge: the index tier's anti-entropy gives
// every index node — and every plain site through its designated node —
// one converged federation picture, charged on the wire, while the plain
// model's query semantics stay untouched.
func TestViewfulIndexViewsConverge(t *testing.T) {
	net, sites := netsim.RandomTopology(netsim.Config{}, 2, 4, 9090) // 8 sites
	nodes := []netsim.SiteID{sites[0], sites[4]}
	m := NewViewful(net, sites, nodes, 1)

	domain := provenance.String("vf")
	pubs := make([]arch.Pub, 0, 24)
	for i := 0; i < 24; i++ {
		p := scenario.PubN(i, sites[i%len(sites)], provenance.Attr("domain", domain))
		if _, err := m.Publish(p); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		pubs = append(pubs, p)
	}
	if err := m.Tick(); err != nil { // refresh lands shards, then index gossip
		t.Fatal(err)
	}

	if got := m.SiteView(nodes[0]).Fingerprint(); got != m.SiteView(nodes[1]).Fingerprint() {
		t.Fatal("index node views did not converge after anti-entropy")
	}
	// Every node's view locates EVERY record, not just its own shard.
	for _, n := range nodes {
		for _, p := range pubs {
			home, ok := m.SiteView(n).Locate(p.ID)
			if !ok {
				t.Fatalf("node %d cannot locate %s after convergence", n, p.ID.Short())
			}
			if home != p.Origin {
				t.Fatalf("node %d locates %s at %d, want its producer %d", n, p.ID.Short(), home, p.Origin)
			}
		}
	}
	// A plain site answers with its designated node's view.
	if m.SiteView(sites[1]).Fingerprint() != m.SiteView(nodes[0]).Fingerprint() {
		t.Fatal("plain site's view is not its designated index node's")
	}
	if gs := m.GossipStats(); gs.Bytes == 0 {
		t.Fatal("index-tier anti-entropy charged zero bytes")
	}
	// The wrapped query path still answers exactly.
	got, _, err := m.QueryAttr(sites[7], "domain", domain)
	if err != nil || len(got) != len(pubs) {
		t.Fatalf("query through the wrapper = %d/%d ids, %v", len(got), len(pubs), err)
	}
}

// TestViewfulSplitBrainAtIndexTier: a partition separating the two index
// nodes makes their views diverge — each side's node learns only its
// side's refreshes — and the first post-heal Tick re-converges them.
func TestViewfulSplitBrainAtIndexTier(t *testing.T) {
	net, sites := netsim.RandomTopology(netsim.Config{}, 2, 4, 9091) // 8 sites
	left, right := sites[:4], sites[4:]
	nodes := []netsim.SiteID{left[0], right[0]}
	m := NewViewful(net, sites, nodes, 1)
	domain := provenance.String("vfsplit")

	net.Partition(left, right)
	for i := 0; i < 16; i++ {
		side := left
		if i%2 == 1 {
			side = right
		}
		// Publishing is local and never blocked; only the refresh's reach
		// is partitioned.
		if _, err := m.Publish(scenario.PubN(i, side[(i/2)%len(side)], provenance.Attr("domain", domain))); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if m.SiteView(nodes[0]).Fingerprint() == m.SiteView(nodes[1]).Fingerprint() {
		t.Fatal("index views match across an open partition")
	}

	net.HealPartition()
	// Refresh requeues drain and the index exchange reconnects; a couple
	// of rounds re-converge the tier.
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if m.SiteView(nodes[0]).Fingerprint() != m.SiteView(nodes[1]).Fingerprint() {
		t.Fatal("index views did not re-converge after the heal")
	}
	got, _, err := m.QueryAttr(sites[1], "domain", domain)
	if err != nil || len(got) != 16 {
		t.Fatalf("post-heal query = %d/16 ids, %v", len(got), err)
	}
}
