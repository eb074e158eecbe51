package archtest

// The heavyweight half of the conformance suite: paper-scale topologies
// and fault injection. Where archtest.go checks that a model answers
// correctly on a pristine 4-site network, this file checks that it keeps
// its contract (arch.Model's fault contract) when the network looks like
// a real wide-area deployment: 1,000+ sites, lossy links, sites crashing
// and joining mid-run, and partitions that heal.
//
// Every scenario is deterministic: topologies come from seeded
// geo.RandomLayout, loss draws from the network's seeded generator, and
// all model-internal fan-out orders are sorted — so the same seed always
// produces the same recall figures, which RecallUnderLoss verifies by
// running itself twice and comparing byte-for-byte.

import (
	"fmt"
	"testing"

	"pass/internal/arch"
	"pass/internal/arch/scenario"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// Scenario seeds, fixed so failures reproduce.
const (
	scaleTopoSeed = 1414
	lossTopoSeed  = 2718
	lossNetSeed   = 3141
	churnTopoSeed = 4669
	partTopoSeed  = 5772
)

// offerAcked offers p up to tries times (scenario.Offer) and reports
// whether it was acknowledged. A failure outside the fault contract fails
// the law rather than reading as "not acked".
func offerAcked(t *testing.T, m arch.Model, p arch.Pub, tries int) bool {
	t.Helper()
	o, err := scenario.Offer(m, p, tries)
	if err != nil {
		t.Fatal(err)
	}
	return o.Acked
}

// flushN runs n maintenance rounds; under faults a single round may not
// deliver everything (requeued refreshes, partially-delivered digests).
func flushN(t *testing.T, m arch.Model, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := m.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
}

// zoneAttr returns the origin site's zone as the standard zone attribute,
// so hierarchical models get a meaningful primary attribute at scale.
func zoneAttr(t *testing.T, net *netsim.Network, origin netsim.SiteID) provenance.Attribute {
	t.Helper()
	a, err := scenario.ZoneAttr(net, origin)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// queryRecall is scenario.QueryRecall with three tries per querier — a
// real client's retries against best-effort queries under loss — and
// fails the law on any query error outside the fault contract.
func queryRecall(t *testing.T, m arch.Model, queriers []netsim.SiteID, key string, value provenance.Value, want map[provenance.ID]bool) []float64 {
	t.Helper()
	out, _, err := scenario.QueryRecall(m, queriers, key, value, want, 3)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// scenarioScale sizes the scale sweep: the full conformance run uses
// 1,000 sites; -short keeps edit-compile-test loops quick.
func scenarioScale(t *testing.T) (zones, sitesPerZone int) {
	if testing.Short() {
		return 25, 8 // 200 sites
	}
	return 125, 8 // 1,000 sites
}

// testScaleSweep: the model must stay correct — exact recall, exact
// ancestry — on a pristine 1,000-site continental topology, not just the
// 4-site unit network.
func testScaleSweep(t *testing.T, cfg Config) {
	zones, spz := scenarioScale(t)
	net, sites := netsim.RandomTopology(netsim.Config{}, zones, spz, scaleTopoSeed)
	m := cfg.Make(net, sites)

	const nRecs = 160
	domain := provenance.String("fault-suite")
	want := make(map[provenance.ID]bool, nRecs)
	for i := 0; i < nRecs; i++ {
		origin := sites[(i*17)%len(sites)]
		p := scenario.PubN(i, origin,
			provenance.Attr(provenance.KeyDomain, domain),
			zoneAttr(t, net, origin))
		if _, err := m.Publish(p); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		want[p.ID] = true
	}
	flushN(t, m, 1)

	queriers := []netsim.SiteID{sites[0], sites[len(sites)/2], sites[len(sites)-1]}
	for _, r := range queryRecall(t, m, queriers, provenance.KeyDomain, domain, want) {
		if r != 1.0 {
			t.Fatalf("recall %v at %d sites, want 1.0", r, len(sites))
		}
	}

	// A lineage chain spanning 12 distinct sites across the topology must
	// resolve completely from yet another site.
	const depth = 24
	chain := make([]provenance.ID, 0, depth)
	for i := 0; i < depth; i++ {
		origin := sites[(i*83)%len(sites)]
		var p arch.Pub
		if i == 0 {
			p = scenario.PubN(1000+i, origin, zoneAttr(t, net, origin))
		} else {
			p = scenario.DerivedN(1000+i, fmt.Sprintf("step-%d", i), origin, chain[i-1])
		}
		if _, err := m.Publish(p); err != nil {
			t.Fatalf("chain publish %d: %v", i, err)
		}
		chain = append(chain, p.ID)
	}
	flushN(t, m, 1)
	anc, _, err := m.QueryAncestors(sites[1], chain[depth-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != depth-1 {
		t.Fatalf("ancestors = %d, want %d", len(anc), depth-1)
	}
	if st := net.Stats(); st.Messages == 0 {
		t.Fatal("no traffic accounted at scale")
	}
}

// testRecallUnderLoss: on a lossy network every acknowledged publish must
// still become queryable once maintenance rounds flush, and the whole
// run — recall figures and traffic accounting — must be identical when
// repeated with the same seeds.
func testRecallUnderLoss(t *testing.T, cfg Config) {
	const (
		nRecs    = 80
		lossRate = 0.15
	)
	domain := provenance.String("lossy")

	run := func() ([]float64, int, netsim.Stats) {
		net, sites := netsim.RandomTopology(netsim.Config{LossRate: lossRate, Seed: lossNetSeed}, 8, 5, lossTopoSeed)
		m := cfg.Make(net, sites)
		want := make(map[provenance.ID]bool, nRecs)
		acked := 0
		for i := 0; i < nRecs; i++ {
			origin := sites[(i*7)%len(sites)]
			p := scenario.PubN(i, origin,
				provenance.Attr(provenance.KeyDomain, domain),
				zoneAttr(t, net, origin))
			if offerAcked(t, m, p, 6) {
				acked++
				want[p.ID] = true
			}
		}
		flushN(t, m, 8)
		queriers := []netsim.SiteID{sites[0], sites[13], sites[26], sites[39]}
		return queryRecall(t, m, queriers, provenance.KeyDomain, domain, want), acked, net.Stats()
	}

	recall1, acked1, stats1 := run()
	if acked1 != nRecs {
		t.Fatalf("only %d/%d publishes acknowledged at %.0f%% loss with retries", acked1, nRecs, lossRate*100)
	}
	for qi, r := range recall1 {
		if r != 1.0 {
			t.Fatalf("querier %d: recall %v over acknowledged publishes, want 1.0", qi, r)
		}
	}
	if stats1.DroppedMsgs == 0 {
		t.Fatal("loss injection inert: nothing was dropped")
	}

	// Determinism: identical seeds → byte-for-byte identical run.
	recall2, acked2, stats2 := run()
	if acked2 != acked1 || stats2 != stats1 {
		t.Fatalf("same seed diverged: acked %d vs %d, stats %+v vs %+v", acked1, acked2, stats1, stats2)
	}
	for qi := range recall1 {
		if recall1[qi] != recall2[qi] {
			t.Fatalf("querier %d recall diverged across identical seeds: %v vs %v", qi, recall1[qi], recall2[qi])
		}
	}
}

// testRecallUnderChurn: sites crash and join mid-run. While churn is in
// progress queries must stay best-effort (never a wrong answer, errors
// only when the model's index is genuinely unreachable); once everyone is
// back and unacknowledged publishes are re-offered, recall must return to
// exactly 1.
func testRecallUnderChurn(t *testing.T, cfg Config) {
	net, sites := netsim.RandomTopology(netsim.Config{}, 6, 4, churnTopoSeed) // 24 sites
	m := cfg.Make(net, sites)
	domain := provenance.String("churny")

	lateJoiners := sites[16:20]
	secondWave := sites[20:24]
	for _, s := range lateJoiners {
		net.Fail(s) // "not yet joined"
	}

	offered := make(map[provenance.ID]bool)
	var all []arch.Pub
	offer := func(p arch.Pub) {
		all = append(all, p)
		offered[p.ID] = true
		offerAcked(t, m, p, 4) // may fail mid-churn; re-offered after heal
	}

	// Phase A: steady state minus the late joiners.
	for i := 0; i < 40; i++ {
		origin := sites[(i*3)%16] // only up sites produce
		offer(scenario.PubN(i, origin,
			provenance.Attr(provenance.KeyDomain, domain),
			zoneAttr(t, net, origin)))
	}
	flushN(t, m, 3)
	sanityQueries(t, m, []netsim.SiteID{sites[1], sites[9]}, domain, offered)

	// Phase B: the late joiners come up and publish; a second wave
	// crashes.
	for _, s := range lateJoiners {
		net.Heal(s)
	}
	for _, s := range secondWave {
		net.Fail(s)
	}
	for i := 40; i < 60; i++ {
		origin := lateJoiners[i%len(lateJoiners)]
		offer(scenario.PubN(i, origin,
			provenance.Attr(provenance.KeyDomain, domain),
			zoneAttr(t, net, origin)))
	}
	flushN(t, m, 3)
	sanityQueries(t, m, []netsim.SiteID{sites[1], lateJoiners[0]}, domain, offered)

	// Full heal: every site returns, every publication is re-offered
	// (idempotent), maintenance flushes — and the model must recover
	// complete recall.
	for _, s := range secondWave {
		net.Heal(s)
	}
	want := make(map[provenance.ID]bool, len(all))
	for _, p := range all {
		if !offerAcked(t, m, p, 6) {
			t.Fatalf("publish %s still failing after full heal", p.ID.Short())
		}
		want[p.ID] = true
	}
	flushN(t, m, 8)
	queriers := []netsim.SiteID{sites[0], sites[17], sites[23]}
	for qi, r := range queryRecall(t, m, queriers, provenance.KeyDomain, domain, want) {
		if r != 1.0 {
			t.Fatalf("querier %d: post-churn recall %v, want 1.0", qi, r)
		}
	}
}

// sanityQueries checks the best-effort contract mid-fault: a query either
// fails unavailable (its index is unreachable) or returns only records
// that were actually offered to the model — degraded recall is fine, and
// so is seeing a partially-indexed record whose publish errored mid-way,
// but a record nobody ever offered is a corruption.
func sanityQueries(t *testing.T, m arch.Model, queriers []netsim.SiteID, domain provenance.Value, offered map[provenance.ID]bool) {
	t.Helper()
	for _, q := range queriers {
		got, _, err := m.QueryAttr(q, provenance.KeyDomain, domain)
		if arch.IsUnavailable(err) {
			continue // index unreachable: an honest refusal
		} else if err != nil {
			t.Fatalf("querier %d: %v", q, err)
		}
		for _, id := range got {
			if !offered[id] {
				t.Fatalf("querier %d: fabricated result %s", q, id.Short())
			}
		}
		if len(got) > len(offered) {
			t.Fatalf("querier %d: %d results exceed %d offered", q, len(got), len(offered))
		}
	}
}

// testPartitionHeal: a clean network split. Each side keeps operating on
// what it can reach; after the partition heals and failed publishes are
// re-offered, both sides converge to full recall.
func testPartitionHeal(t *testing.T, cfg Config) {
	net, sites := netsim.RandomTopology(netsim.Config{}, 4, 4, partTopoSeed) // 16 sites
	m := cfg.Make(net, sites)
	domain := provenance.String("split")

	left, right := sites[:8], sites[8:]
	net.Partition(left, right)

	offered := make(map[provenance.ID]bool)
	var all []arch.Pub
	for i := 0; i < 40; i++ {
		var origin netsim.SiteID
		if i%2 == 0 {
			origin = left[(i/2)%len(left)]
		} else {
			origin = right[(i/2)%len(right)]
		}
		p := scenario.PubN(i, origin,
			provenance.Attr(provenance.KeyDomain, domain),
			zoneAttr(t, net, origin))
		all = append(all, p)
		offered[p.ID] = true
		offerAcked(t, m, p, 2) // cross-partition publishes fail for now
	}
	flushN(t, m, 2)
	sanityQueries(t, m, []netsim.SiteID{left[1], right[1]}, domain, offered)

	net.HealPartition()
	want := make(map[provenance.ID]bool, len(all))
	for _, p := range all {
		if !offerAcked(t, m, p, 6) {
			t.Fatalf("publish %s still failing after heal", p.ID.Short())
		}
		want[p.ID] = true
	}
	flushN(t, m, 8)
	for qi, r := range queryRecall(t, m, []netsim.SiteID{left[0], right[0]}, provenance.KeyDomain, domain, want) {
		if r != 1.0 {
			t.Fatalf("querier %d: post-heal recall %v, want 1.0", qi, r)
		}
	}
}
