package archtest

// Per-site view laws and the 10k-site scale sweep.
//
// The siteview refactor gives every distributed-PASS site its own
// versioned picture of the federation, which creates two laws the whole
// roster must obey and one that only view-exposing models can:
//
//   - View convergence: after every publication's digest is fully
//     delivered on a fault-free network, EVERY site answers the same
//     attribute query identically. This holds for all seven models (on a
//     pristine network a flushed index has one truth); for models that
//     implement siteview.Exposer it is additionally asserted at the view
//     level — all per-site fingerprints equal.
//
//   - Split-brain: while a partition separates two site groups, the same
//     query asked from opposite sides returns the two sides' local
//     truths; healing plus full gossip restores convergence. Only
//     view-exposing models can represent this (a shared global index has
//     nothing to diverge), so the scenario runs for Exposer models and is
//     skipped for the rest.
//
//   - Scale: the 10k-site sweep re-checks correctness at paper-straining
//     scale and pins the cost law the indexed lookups bought: resolving
//     one record costs a bounded number of messages, NOT O(sites).

import (
	"fmt"
	"sort"
	"testing"

	"pass/internal/arch"
	"pass/internal/arch/scenario"
	"pass/internal/arch/siteview"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

const (
	convTopoSeed  = 6283
	splitTopoSeed = 7071
	sweepTopoSeed = 8128
)

// idsKey canonicalizes a query result for equality comparison.
func idsKey(ids []provenance.ID) string {
	sorted := append([]provenance.ID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool {
		for b := 0; b < len(sorted[i]); b++ {
			if sorted[i][b] != sorted[j][b] {
				return sorted[i][b] < sorted[j][b]
			}
		}
		return false
	})
	out := make([]byte, 0, len(sorted)*32)
	for _, id := range sorted {
		out = append(out, id[:]...)
	}
	return string(out)
}

// testViewConvergence: the convergence law. After full digest delivery
// with no faults, every site's view answers identically — checked through
// QueryAttr for every model, and through view fingerprints for models
// exposing per-site views.
func testViewConvergence(t *testing.T, cfg Config) {
	net, sites := netsim.RandomTopology(netsim.Config{}, 6, 4, convTopoSeed) // 24 sites
	m := cfg.Make(net, sites)
	domain := provenance.String("conv")
	for i := 0; i < 30; i++ {
		origin := sites[(i*7)%len(sites)]
		p := scenario.PubN(i, origin,
			provenance.Attr(provenance.KeyDomain, domain),
			zoneAttr(t, net, origin))
		if _, err := m.Publish(p); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	flushN(t, m, 2)

	var want string
	for i, q := range sites {
		got, _, err := m.QueryAttr(q, provenance.KeyDomain, domain)
		if err != nil {
			t.Fatalf("query from site %d: %v", q, err)
		}
		if len(got) != 30 {
			t.Fatalf("site %d sees %d/30 records after full delivery", q, len(got))
		}
		key := idsKey(got)
		if i == 0 {
			want = key
		} else if key != want {
			t.Fatalf("site %d answers differently from site %d after full delivery", q, sites[0])
		}
	}

	if ve, ok := m.(siteview.Exposer); ok {
		fp := ve.SiteView(sites[0]).Fingerprint()
		for _, s := range sites[1:] {
			if got := ve.SiteView(s).Fingerprint(); got != fp {
				t.Fatalf("site %d view fingerprint %x != site %d's %x after full delivery",
					s, got, sites[0], fp)
			}
		}
	}
}

// testSplitBrainViews: the divergence-then-convergence round trip, for
// models that expose per-site views. Both partition sides keep publishing
// (view-based models commit locally); mid-partition the two sides answer
// with their own local truths, and healing plus gossip converges every
// view again.
func testSplitBrainViews(t *testing.T, cfg Config) {
	net, sites := netsim.RandomTopology(netsim.Config{}, 4, 4, splitTopoSeed) // 16 sites
	m := cfg.Make(net, sites)
	ve, ok := m.(siteview.Exposer)
	if !ok {
		t.Skip("model does not expose per-site views")
	}
	domain := provenance.String("brain")
	left, right := sites[:8], sites[8:]
	net.Partition(left, right)

	wantLeft := make(map[provenance.ID]bool)
	wantRight := make(map[provenance.ID]bool)
	for i := 0; i < 24; i++ {
		var origin netsim.SiteID
		if i%2 == 0 {
			origin = left[(i/2)%len(left)]
		} else {
			origin = right[(i/2)%len(right)]
		}
		p := scenario.PubN(i, origin,
			provenance.Attr(provenance.KeyDomain, domain),
			zoneAttr(t, net, origin))
		if !offerAcked(t, m, p, 4) {
			t.Fatalf("local publish %d failed under partition", i)
		}
		if i%2 == 0 {
			wantLeft[p.ID] = true
		} else {
			wantRight[p.ID] = true
		}
	}
	flushN(t, m, 2)

	// Mid-partition: each side sees exactly its own records.
	check := func(q netsim.SiteID, wantSide, otherSide map[provenance.ID]bool, side string) {
		t.Helper()
		got, _, err := m.QueryAttr(q, provenance.KeyDomain, domain)
		if err != nil {
			t.Fatalf("%s querier %d: %v", side, q, err)
		}
		if len(got) != len(wantSide) {
			t.Fatalf("%s querier %d sees %d records, want its side's %d", side, q, len(got), len(wantSide))
		}
		for _, id := range got {
			if otherSide[id] {
				t.Fatalf("%s querier %d saw a record from across the partition", side, q)
			}
			if !wantSide[id] {
				t.Fatalf("%s querier %d fabricated %s", side, q, id.Short())
			}
		}
	}
	check(left[1], wantLeft, wantRight, "left")
	check(right[1], wantRight, wantLeft, "right")
	if ve.SiteView(left[1]).Fingerprint() == ve.SiteView(right[1]).Fingerprint() {
		t.Fatal("views on opposite partition sides match mid-partition")
	}

	// Heal and gossip: every view converges and every site sees both
	// sides' records.
	net.HealPartition()
	flushN(t, m, 4)
	fp := ve.SiteView(sites[0]).Fingerprint()
	for _, s := range sites[1:] {
		if got := ve.SiteView(s).Fingerprint(); got != fp {
			t.Fatalf("site %d view did not converge after heal", s)
		}
	}
	for _, q := range []netsim.SiteID{left[0], right[0]} {
		got, _, err := m.QueryAttr(q, provenance.KeyDomain, domain)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantLeft)+len(wantRight) {
			t.Fatalf("post-heal querier %d sees %d/%d records", q, len(got), len(wantLeft)+len(wantRight))
		}
	}
}

// testSweep10k: correctness and cost laws at 10,000 sites. Publishes a
// modest workload over a 2,500-zone topology, requires exact recall and
// complete ancestry, and pins the indexed-lookup bound: resolving one
// record costs a bounded number of messages (catalog/name-path/view
// routing; a DHT pays O(log n) hops), never O(sites). Skipped under
// -short: building the topology alone is meaningful work.
func testSweep10k(t *testing.T, cfg Config) {
	if testing.Short() {
		t.Skip("10k-site sweep in -short mode")
	}
	net, sites := netsim.RandomTopology(netsim.Config{}, 2500, 4, sweepTopoSeed)
	if len(sites) != 10000 {
		t.Fatalf("topology has %d sites, want 10000", len(sites))
	}
	m := cfg.Make(net, sites)

	const nRecs = 48
	domain := provenance.String("sweep10k")
	want := make(map[provenance.ID]bool, nRecs)
	pubs := make([]arch.Pub, 0, nRecs)
	for i := 0; i < nRecs; i++ {
		origin := sites[(i*211)%len(sites)]
		p := scenario.PubN(i, origin,
			provenance.Attr(provenance.KeyDomain, domain),
			zoneAttr(t, net, origin))
		if _, err := m.Publish(p); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		want[p.ID] = true
		pubs = append(pubs, p)
	}
	flushN(t, m, 1)

	queriers := []netsim.SiteID{sites[1], sites[len(sites)/2], sites[len(sites)-2]}
	for qi, r := range queryRecall(t, m, queriers, provenance.KeyDomain, domain, want) {
		if r != 1.0 {
			t.Fatalf("querier %d: recall %v at 10k sites, want 1.0", qi, r)
		}
	}

	// The per-lookup cost law. 64 messages comfortably covers every
	// indexed path (2–4 messages) and DHT routing (~log2(10k) hops plus
	// the response) while sitting three orders of magnitude below an
	// O(sites) probe loop.
	const lookupBudget = 64
	for i, p := range []arch.Pub{pubs[0], pubs[nRecs/2], pubs[nRecs-1]} {
		before := net.Stats().Messages
		if _, _, err := m.Lookup(queriers[i%len(queriers)], p.ID); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if cost := net.Stats().Messages - before; cost > lookupBudget {
			t.Fatalf("lookup cost %d messages at 10k sites (budget %d): probe loop is back", cost, lookupBudget)
		}
	}

	// Ancestry across 12 sites: complete closure, message cost bounded by
	// the chain's shape (per-record routing), not the site count.
	const depth = 12
	chain := make([]provenance.ID, 0, depth)
	for i := 0; i < depth; i++ {
		origin := sites[(i*977)%len(sites)]
		var p arch.Pub
		if i == 0 {
			p = scenario.PubN(2000+i, origin, zoneAttr(t, net, origin))
		} else {
			p = scenario.DerivedN(2000+i, fmt.Sprintf("step-%d", i), origin, chain[i-1])
		}
		if _, err := m.Publish(p); err != nil {
			t.Fatalf("chain publish %d: %v", i, err)
		}
		chain = append(chain, p.ID)
	}
	flushN(t, m, 1)
	before := net.Stats().Messages
	anc, _, err := m.QueryAncestors(sites[3], chain[depth-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != depth-1 {
		t.Fatalf("ancestors = %d, want %d", len(anc), depth-1)
	}
	if cost := net.Stats().Messages - before; cost > depth*lookupBudget {
		t.Fatalf("ancestry cost %d messages at 10k sites (budget %d)", cost, depth*lookupBudget)
	}
}
