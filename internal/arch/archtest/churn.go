package archtest

// Churn-recovery laws: what a model must guarantee when MEMBERSHIP
// changes, beyond the transient-fault contract of faults.go. Both laws
// are capability-gated: a model that cannot express the recovery
// mechanism (no ring to stabilize, no per-site views to snapshot) skips
// the law rather than faking it.
//
//   - KeyRehoming (arch.Stabilizer, today: dht): keys owned by a crashed
//     node must become resolvable again after stabilization alone — no
//     origin republish — because the dead node's successor promotes the
//     replicas it holds. Lookups that failed right after the crash
//     succeed after Stabilize, and attribute recall returns to 1.
//
//   - FastRejoin (arch.Rejoiner + siteview.Exposer, today: passnet): a
//     site recovering from a crash converges via one snapshot transfer
//     instead of replaying every queued digest delta. The law runs the
//     same scenario twice — once recovering by gossip replay, once by
//     Rejoin — and asserts the rejoin path converges in strictly fewer
//     maintenance rounds AND fewer bytes, and that the senders' pruned
//     outboxes send nothing further to the rejoined site.

import (
	"testing"

	"pass/internal/arch"
	"pass/internal/arch/scenario"
	"pass/internal/arch/siteview"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

const (
	rehomeTopoSeed = 9462
	rejoinTopoSeed = 10301
)

// testKeyRehoming: crash several ring members, stabilize, and require
// every acknowledged record to resolve again — the successor-list
// replicas must be promoted, not routed around forever.
func testKeyRehoming(t *testing.T, cfg Config) {
	net, sites := netsim.RandomTopology(netsim.Config{}, 10, 4, rehomeTopoSeed) // 40 sites
	m := cfg.Make(net, sites)
	stab, ok := m.(arch.Stabilizer)
	if !ok {
		t.Skip("model has no membership to stabilize")
	}
	domain := provenance.String("rehome")

	const nRecs = 60
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

	// Crash a spread of sites. Ring positions are hash-scrambled, so a
	// stride over site IDs lands the victims at scattered ring slots.
	victims := []netsim.SiteID{sites[3], sites[13], sites[23], sites[33]}
	for _, v := range victims {
		net.Fail(v)
	}
	queriers := []netsim.SiteID{sites[0], sites[20], sites[39]}

	// Before stabilization the dead nodes' keys are simply gone: at least
	// one lookup must fail (otherwise the crash hit nothing and the law
	// is vacuous).
	brokenBefore := 0
	for _, p := range pubs {
		if _, _, err := m.Lookup(queriers[0], p.ID); err != nil {
			brokenBefore++
		}
	}
	if brokenBefore == 0 {
		t.Fatal("no lookups broke after crashing 4/40 nodes — victims held nothing, law is vacuous")
	}

	// Stabilize (several rounds: detection walks successor lists
	// progressively). No Tick, no origin republish — recovery must come
	// from re-homing alone.
	for i := 0; i < 3; i++ {
		if _, err := stab.Stabilize(); err != nil {
			t.Fatalf("stabilize round %d: %v", i, err)
		}
	}

	recovered := 0
	for _, p := range pubs {
		rec, _, err := m.Lookup(queriers[1], p.ID)
		if err != nil {
			continue
		}
		if rec.ComputeID() != p.ID {
			t.Fatalf("lookup of %s returned a different record after re-homing", p.ID.Short())
		}
		recovered++
	}
	if frac := float64(recovered) / float64(nRecs); frac < 0.99 {
		t.Fatalf("lookup recovery %.3f after crash+stabilize (%d/%d), want >= 0.99", frac, recovered, nRecs)
	}
	for qi, r := range queryRecall(t, m, queriers, provenance.KeyDomain, domain, want) {
		if r < 0.99 {
			t.Fatalf("querier %d: attribute recall %v after crash+stabilize, want >= 0.99", qi, r)
		}
	}
}

// testFastRejoin: the same crash-and-recover scenario twice — gossip
// replay vs snapshot rejoin — asserting the snapshot path is strictly
// cheaper in both rounds and bytes, and that it really prunes the
// senders' queues.
func testFastRejoin(t *testing.T, cfg Config) {
	{
		probe := func() bool {
			net, sites := netsim.RandomTopology(netsim.Config{}, 2, 2, rejoinTopoSeed)
			m := cfg.Make(net, sites)
			_, isRejoiner := m.(arch.Rejoiner)
			_, isExposer := m.(siteview.Exposer)
			return isRejoiner && isExposer
		}
		if !probe() {
			t.Skip("model has no rejoin state transfer")
		}
	}

	const (
		nBase  = 12 // records published before the crash
		nWaves = 8  // gossip rounds missed while down
		perWav = 12 // records per missed round
	)
	domain := provenance.String("rejoin")

	// run executes the scenario and reports the recovery cost after the
	// heal: bytes on the wire, maintenance rounds until every view
	// fingerprint matches, and the traffic of one extra post-convergence
	// round (which must be zero if the senders' queues drained). The
	// replay leg builds via MakeReplay when the model's default recovery
	// is already the snapshot (proactive rejoin) — otherwise both legs
	// would take the same path and the comparison would be vacuous.
	run := func(useRejoin bool) (bytes int64, rounds int, extraMsgs int64) {
		net, sites := netsim.RandomTopology(netsim.Config{}, 6, 4, rejoinTopoSeed) // 24 sites
		build := cfg.Make
		if !useRejoin && cfg.MakeReplay != nil {
			build = cfg.MakeReplay
		}
		m := build(net, sites)
		ve := m.(siteview.Exposer)
		victim := sites[20]

		pub := func(n int, origin netsim.SiteID) {
			p := scenario.PubN(n, origin,
				provenance.Attr(provenance.KeyDomain, domain),
				zoneAttr(t, net, origin))
			if !offerAcked(t, m, p, 4) {
				t.Fatalf("publish %d failed on a pristine network", n)
			}
		}
		for i := 0; i < nBase; i++ {
			pub(i, sites[i%12]) // victims never produce in this scenario
		}
		flushN(t, m, 2)

		net.Fail(victim)
		for w := 0; w < nWaves; w++ {
			for i := 0; i < perWav; i++ {
				pub(100+w*perWav+i, sites[i%12])
			}
			flushN(t, m, 1) // deltas reach everyone except the victim
		}
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

		before := net.Stats()
		if useRejoin {
			rej := m.(arch.Rejoiner)
			if _, err := rej.Rejoin(victim); err != nil {
				t.Fatalf("rejoin: %v", err)
			}
		}
		for rounds = 0; !converged(); rounds++ {
			if rounds > 10 {
				t.Fatalf("views did not converge within 10 rounds (rejoin=%v)", useRejoin)
			}
			flushN(t, m, 1)
		}
		after := net.Stats()
		bytes = after.Bytes - before.Bytes

		// One more maintenance round: anything still queued for the victim
		// goes out now and is charged against the recovery path.
		flushN(t, m, 1)
		extraMsgs = net.Stats().Messages - after.Messages
		return bytes, rounds, extraMsgs
	}

	replayBytes, replayRounds, _ := run(false)
	rejoinBytes, rejoinRounds, rejoinExtra := run(true)

	if rejoinRounds >= replayRounds && replayRounds > 0 {
		t.Fatalf("rejoin took %d rounds, replay %d — snapshot did not speed convergence", rejoinRounds, replayRounds)
	}
	if rejoinRounds > 1 {
		t.Fatalf("rejoined site needed %d maintenance rounds, want <= 1 (bounded convergence)", rejoinRounds)
	}
	if rejoinBytes >= replayBytes {
		t.Fatalf("rejoin snapshot cost %d bytes, outbox replay %d — snapshot must be cheaper", rejoinBytes, replayBytes)
	}
	if rejoinExtra != 0 {
		t.Fatalf("%d messages sent after rejoin convergence — senders' outboxes were not pruned", rejoinExtra)
	}
}
