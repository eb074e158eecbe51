package archtest

// Gossip-efficiency laws: what a model's dissemination layer must save —
// not just what it must deliver. faults.go pins that gossip converges
// under loss and churn; this file pins that the EFFICIENT gossip path
// (duplicate suppression, per-peer delta coalescing, armed anti-entropy
// pulls) buys its byte savings without giving any of that convergence
// back, and that a voluntary departure is cheaper than the crash it
// replaces.
//
//   - DuplicateSuppression (Config.MakeEfficient, today: passnet): the
//     same seeded scenario — duplicate re-offers, a lossy burst, a crash
//     that heals — runs once on the baseline build and once on the
//     efficient build. Both must converge every site to the SAME view
//     fingerprint with full recall, the efficient run in no more
//     maintenance rounds, while charging strictly fewer WAN bytes; its
//     meter must show real suppression work (DupSuppressed > 0) and real
//     pull exchanges (PullRounds > 0), and the whole efficient run must
//     replay byte-identically.
//
//   - LeaveHandoff (arch.Leaver + arch.Stabilizer, today: dht): a member
//     that departs voluntarily pushes its keys to its successor before
//     disconnecting. The law runs the same build twice — one leg leaves,
//     the other crashes the same site and stabilizes — and requires the
//     leave's charged handoff (> 0 bytes) to be strictly cheaper than
//     crash-then-stabilize, with lookup and attribute recall >= 0.99 on
//     both legs.

import (
	"testing"

	"pass/internal/arch"
	"pass/internal/arch/scenario"
	"pass/internal/arch/siteview"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

const (
	dupTopoSeed   = 13099
	leaveTopoSeed = 13177
)

// testDuplicateSuppression: baseline vs efficient gossip over an
// identical seeded workload — same converged state, no extra rounds,
// strictly fewer bytes.
func testDuplicateSuppression(t *testing.T, cfg Config) {
	if cfg.MakeEfficient == nil {
		t.Skip("model has no efficient gossip mode to compare")
	}
	{
		net, sites := netsim.RandomTopology(netsim.Config{}, 2, 2, dupTopoSeed)
		m := cfg.MakeEfficient(net, sites)
		if _, ok := m.(siteview.Exposer); !ok {
			t.Fatal("MakeEfficient model exposes no per-site views — fingerprint convergence is unobservable")
		}
		if _, ok := m.(arch.GossipMeter); !ok {
			t.Fatal("MakeEfficient model meters no gossip — the law's savings are unobservable")
		}
	}
	domain := provenance.String("dup")

	type outcome struct {
		fp     uint64
		bytes  int64
		rounds int
		gs     arch.GossipStats
	}
	// run drives the shared scenario: duplicate re-offers on a pristine
	// network, more duplicates through a lossy burst, a crash that heals,
	// then bounded maintenance until every site's view fingerprint
	// matches. Publishes are origin-local and so never lost — both builds
	// see the identical offered workload.
	run := func(build arch.Builder) outcome {
		net, sites := netsim.RandomTopology(netsim.Config{}, 6, 4, dupTopoSeed) // 24 sites
		m := build(net, sites)
		ve := m.(siteview.Exposer)
		victim := sites[20]

		want := make(map[provenance.ID]bool)
		offer := func(n int, origin netsim.SiteID, times int) {
			p := scenario.PubN(n, origin,
				provenance.Attr(provenance.KeyDomain, domain),
				zoneAttr(t, net, origin))
			for k := 0; k < times; k++ {
				if !offerAcked(t, m, p, 4) {
					t.Fatalf("publish %d failed", n)
				}
			}
			want[p.ID] = true
		}

		// Phase 1: pristine network, every record offered twice — an
		// at-least-once ingest pipeline re-offering what it already sent.
		for i := 0; i < 16; i++ {
			offer(i, sites[i%12], 2)
		}
		flushN(t, m, 2)

		// Phase 2: a lossy burst with the duplicates still coming. Lost
		// pushes are charged, so this is where naive re-push bleeds bytes.
		net.SetLossRate(0.25)
		for w := 0; w < 4; w++ {
			for i := 0; i < 6; i++ {
				offer(100+w*6+i, sites[i%12], 2)
			}
			flushN(t, m, 1)
		}

		// Phase 3: a crash on top of the loss; publishing continues.
		net.Fail(victim)
		for w := 0; w < 3; w++ {
			for i := 0; i < 4; i++ {
				offer(200+w*4+i, sites[i%12], 1)
			}
			flushN(t, m, 1)
		}
		net.SetLossRate(0)
		net.Heal(victim)

		converged := func() bool {
			fp := ve.SiteView(sites[0]).Fingerprint()
			for _, s := range sites[1:] {
				if ve.SiteView(s).Fingerprint() != fp {
					return false
				}
			}
			return true
		}
		o := outcome{}
		for ; !converged(); o.rounds++ {
			if o.rounds > 20 {
				t.Fatal("views did not converge within 20 rounds after heal")
			}
			flushN(t, m, 1)
		}
		for qi, r := range queryRecall(t, m, []netsim.SiteID{sites[0], victim, sites[23]}, provenance.KeyDomain, domain, want) {
			if r != 1.0 {
				t.Fatalf("querier %d: recall %v after convergence, want 1.0", qi, r)
			}
		}
		o.fp = ve.SiteView(sites[0]).Fingerprint()
		o.bytes = net.Stats().Bytes
		if gm, ok := m.(arch.GossipMeter); ok {
			o.gs = gm.GossipStats()
		}
		return o
	}

	base := run(cfg.Make)
	eff := run(cfg.MakeEfficient)

	if eff.fp != base.fp {
		t.Fatalf("efficient gossip converged to fingerprint %x, baseline %x — suppression changed the state", eff.fp, base.fp)
	}
	if eff.rounds > base.rounds {
		t.Fatalf("efficient gossip needed %d convergence rounds, baseline %d — savings bought with latency", eff.rounds, base.rounds)
	}
	if eff.bytes >= base.bytes {
		t.Fatalf("efficient gossip charged %d total WAN bytes, baseline %d — no savings\neff %+v\nbase %+v", eff.bytes, base.bytes, eff.gs, base.gs)
	}
	t.Logf("gossip layer: baseline %d bytes, efficient %d (%.1f%% saved; %d re-offers suppressed, %d pulls)",
		base.gs.Bytes, eff.gs.Bytes, 100*(1-float64(eff.gs.Bytes)/float64(base.gs.Bytes)), eff.gs.DupSuppressed, eff.gs.PullRounds)
	if eff.gs.Bytes >= base.gs.Bytes {
		t.Fatalf("efficient gossip layer charged %d bytes, baseline layer %d — the savings came from somewhere else", eff.gs.Bytes, base.gs.Bytes)
	}
	if eff.gs.DupSuppressed == 0 {
		t.Fatal("no duplicates suppressed across a workload that offered every record twice — the dupemap is inert")
	}
	if eff.gs.PullRounds == 0 {
		t.Fatal("no anti-entropy pulls ran across a lossy burst — the armed pull never fired")
	}

	// Same-seed determinism: the efficient run replays byte-identically,
	// suppression counters and all.
	eff2 := run(cfg.MakeEfficient)
	if eff2 != eff {
		t.Fatalf("efficient run diverged across identical seeds:\n%+v\nvs\n%+v", eff, eff2)
	}
}

// testLeaveHandoff: a voluntary departure with a pre-exit key handoff
// must cost real bytes — and strictly fewer of them than crashing the
// same member and stabilizing around the hole.
func testLeaveHandoff(t *testing.T, cfg Config) {
	{
		net, sites := netsim.RandomTopology(netsim.Config{}, 2, 2, leaveTopoSeed)
		m := cfg.Make(net, sites)
		_, isLeaver := m.(arch.Leaver)
		_, isStab := m.(arch.Stabilizer)
		if !isLeaver || !isStab {
			t.Skip("model has no voluntary departure")
		}
	}
	domain := provenance.String("leave")

	const nRecs = 60
	// build stands up a fresh 40-site deployment with the shared workload;
	// both legs start from byte-identical state.
	build := func() (*netsim.Network, []netsim.SiteID, arch.Model, []arch.Pub, map[provenance.ID]bool) {
		net, sites := netsim.RandomTopology(netsim.Config{}, 10, 4, leaveTopoSeed) // 40 sites
		m := cfg.Make(net, sites)
		want := make(map[provenance.ID]bool, nRecs)
		pubs := make([]arch.Pub, 0, nRecs)
		for i := 0; i < nRecs; i++ {
			origin := sites[(i*11)%len(sites)]
			p := scenario.PubN(i, origin,
				provenance.Attr(provenance.KeyDomain, domain),
				zoneAttr(t, net, origin))
			if _, err := m.Publish(p); err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
			want[p.ID] = true
			pubs = append(pubs, p)
		}
		flush(t, cfg, m)
		return net, sites, m, pubs, want
	}
	check := func(leg string, net *netsim.Network, sites []netsim.SiteID, m arch.Model, pubs []arch.Pub, want map[provenance.ID]bool) {
		t.Helper()
		queriers := []netsim.SiteID{sites[0], sites[20]}
		recovered := 0
		for _, p := range pubs {
			rec, _, err := m.Lookup(queriers[0], p.ID)
			if err != nil {
				continue
			}
			if rec.ComputeID() != p.ID {
				t.Fatalf("%s: lookup of %s returned a different record", leg, p.ID.Short())
			}
			recovered++
		}
		if frac := float64(recovered) / float64(len(pubs)); frac < 0.99 {
			t.Fatalf("%s: lookup recall %.3f (%d/%d), want >= 0.99", leg, frac, recovered, len(pubs))
		}
		for qi, r := range queryRecall(t, m, queriers, provenance.KeyDomain, domain, want) {
			if r < 0.99 {
				t.Fatalf("%s: querier %d attribute recall %v, want >= 0.99", leg, qi, r)
			}
		}
	}

	// Leg 1: sites[7] departs voluntarily — announcement plus a charged
	// diff of whatever its successor is missing.
	net1, sites1, m1, pubs1, want1 := build()
	before := net1.Stats().Bytes
	if _, err := m1.(arch.Leaver).Leave(sites1[7]); err != nil {
		t.Fatalf("leave on a pristine network: %v", err)
	}
	leaveBytes := net1.Stats().Bytes - before
	if leaveBytes == 0 {
		t.Fatal("voluntary leave charged zero bytes — the pre-exit handoff was free")
	}
	if mem, ok := m1.(interface{ Members() int }); ok {
		if got := mem.Members(); got != len(sites1)-1 {
			t.Fatalf("membership is %d after the leave, want %d", got, len(sites1)-1)
		}
	}
	check("leave", net1, sites1, m1, pubs1, want1)

	// Leg 2: the same site crashes on an identical build and the
	// membership stabilizes around the hole — probes, promotion, and
	// re-replication all charged.
	net2, sites2, m2, pubs2, want2 := build()
	before = net2.Stats().Bytes
	net2.Fail(sites2[7])
	for i := 0; i < 3; i++ {
		if _, err := m2.(arch.Stabilizer).Stabilize(); err != nil {
			t.Fatalf("stabilize round %d: %v", i, err)
		}
	}
	crashBytes := net2.Stats().Bytes - before
	check("crash", net2, sites2, m2, pubs2, want2)

	if leaveBytes >= crashBytes {
		t.Fatalf("voluntary leave cost %d bytes, crash-then-stabilize %d — the announced handoff must be cheaper",
			leaveBytes, crashBytes)
	}
}
