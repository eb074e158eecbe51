package archtest

// Membership laws: the ARRIVAL half of churn, plus the randomized
// schedules that interleave everything. churn.go pins departures
// (KeyRehoming) and operator-driven recovery (FastRejoin); this file
// pins the rest of the lifecycle:
//
//   - JoinHandoff (arch.Joiner, today: dht): a cold node joining a live
//     ring receives a charged key handoff from its successor — lookups
//     for the handed-off keys recover to ≥ 0.99 with the handoff's bytes
//     visible in the network accounting, and the new member serves both
//     as a queryable home and as a querier.
//
//   - ProactiveRejoin (arch.Rejoiner + siteview.Exposer, today:
//     passnet): a site that crashed and came back converges via the
//     snapshot path with ZERO operator Rejoin calls — the model detects
//     its own recovery inside Tick — and the senders' pruned outboxes
//     send nothing further.
//
//   - MembershipSchedule: the generative law. For several seeds, a
//     randomized interleaving of join / crash / heal / partition /
//     loss-burst events (package schedule) runs against the model, and a
//     generic oracle asserts eventual recall ≥ 0.99 after quiescence,
//     non-trivial traffic accounting, every joiner admitted, and
//     same-seed determinism. A failing seed prints the schedule as a
//     replayable event list.

import (
	"testing"

	"pass/internal/arch"
	"pass/internal/arch/scenario"
	"pass/internal/arch/schedule"
	"pass/internal/arch/siteview"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

const (
	joinTopoSeed      = 11213
	proactiveTopoSeed = 12007
)

// testJoinHandoff: grow a live membership by four cold nodes and require
// the keys they now own to keep resolving — which only works if the
// successors actually handed them over.
func testJoinHandoff(t *testing.T, cfg Config) {
	{
		net, sites := netsim.RandomTopology(netsim.Config{}, 2, 2, joinTopoSeed)
		if _, ok := cfg.Make(net, sites).(arch.Joiner); !ok {
			t.Skip("model has no runtime membership growth")
		}
	}
	net, sites := netsim.RandomTopology(netsim.Config{}, 10, 4, joinTopoSeed) // 40 sites
	members, cold := sites[:36], sites[36:]
	m := cfg.Make(net, members)
	joiner := m.(arch.Joiner)
	domain := provenance.String("join")

	const nRecs = 80
	want := make(map[provenance.ID]bool, nRecs)
	pubs := make([]arch.Pub, 0, nRecs)
	for i := 0; i < nRecs; i++ {
		origin := members[(i*13)%len(members)]
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

	before := net.Stats().Bytes
	for i, c := range cold {
		if _, err := joiner.Join(c, members[i*7]); err != nil {
			t.Fatalf("join of %d via %d: %v", c, members[i*7], err)
		}
	}
	joinBytes := net.Stats().Bytes - before
	if joinBytes == 0 {
		t.Fatal("four joins charged zero bytes — admission and handoff were free")
	}
	// Models exposing handoff observability must have moved something on
	// this workload (4/40 of the ring over 80 multi-attribute records),
	// and every handoff byte must be visible in the network accounting.
	if ho, ok := m.(interface{ HandedOff() int64 }); ok {
		if ho.HandedOff() == 0 {
			t.Fatal("no records handed off across four joins — the new arcs took ownership of nothing")
		}
	}
	if hb, ok := m.(interface{ HandoffBytes() int64 }); ok {
		if hb.HandoffBytes() <= 0 || hb.HandoffBytes() > joinBytes {
			t.Fatalf("handoff bytes %d not within the %d bytes the joins charged", hb.HandoffBytes(), joinBytes)
		}
	}
	if mem, ok := m.(interface{ Members() int }); ok {
		if got := mem.Members(); got != len(sites) {
			t.Fatalf("membership is %d after the joins, want %d", got, len(sites))
		}
	}

	// The law's core: every pre-join key still resolves, now routed
	// through a ring that includes the new members — so the handed-off
	// arcs answer from the joiners' stores. Queried from an old member
	// AND from a fresh joiner.
	for _, q := range []netsim.SiteID{members[5], cold[0]} {
		recovered := 0
		for _, p := range pubs {
			rec, _, err := m.Lookup(q, p.ID)
			if err != nil {
				continue
			}
			if rec.ComputeID() != p.ID {
				t.Fatalf("lookup of %s from %d returned a different record after the joins", p.ID.Short(), q)
			}
			recovered++
		}
		if frac := float64(recovered) / float64(nRecs); frac < 0.99 {
			t.Fatalf("querier %d: lookup recall %.3f after joins (%d/%d), want >= 0.99", q, frac, recovered, nRecs)
		}
	}
	for qi, r := range queryRecall(t, m, []netsim.SiteID{members[0], cold[1]}, provenance.KeyDomain, domain, want) {
		if r < 0.99 {
			t.Fatalf("querier %d: attribute recall %v after joins, want >= 0.99", qi, r)
		}
	}

	// The new members are full citizens: they publish, and the rest of
	// the federation finds it.
	for i, c := range cold {
		p := scenario.PubN(1000+i, c,
			provenance.Attr(provenance.KeyDomain, domain),
			zoneAttr(t, net, c))
		if _, err := m.Publish(p); err != nil {
			t.Fatalf("post-join publish from %d: %v", c, err)
		}
		want[p.ID] = true
	}
	flush(t, cfg, m)
	for qi, r := range queryRecall(t, m, []netsim.SiteID{members[1]}, provenance.KeyDomain, domain, want) {
		if r < 0.99 {
			t.Fatalf("querier %d: recall %v including the joiners' own publications, want >= 0.99", qi, r)
		}
	}
}

// testProactiveRejoin: a crashed-and-recovered site must converge via
// the snapshot path without ANY operator Rejoin call — the model notices
// its own recovery during maintenance.
func testProactiveRejoin(t *testing.T, cfg Config) {
	{
		net, sites := netsim.RandomTopology(netsim.Config{}, 2, 2, proactiveTopoSeed)
		m := cfg.Make(net, sites)
		_, isRejoiner := m.(arch.Rejoiner)
		_, isExposer := m.(siteview.Exposer)
		if !isRejoiner || !isExposer {
			t.Skip("model has no rejoin state transfer")
		}
	}
	net, sites := netsim.RandomTopology(netsim.Config{}, 6, 4, proactiveTopoSeed) // 24 sites
	m := cfg.Make(net, sites)
	ve := m.(siteview.Exposer)
	victim := sites[20]
	domain := provenance.String("proactive")

	pub := func(n int, origin netsim.SiteID) {
		p := scenario.PubN(n, origin,
			provenance.Attr(provenance.KeyDomain, domain),
			zoneAttr(t, net, origin))
		if !offerAcked(t, m, p, 4) {
			t.Fatalf("publish %d failed on a pristine network", n)
		}
	}
	for i := 0; i < 12; i++ {
		pub(i, sites[i%12])
	}
	flushN(t, m, 2)

	net.Fail(victim)
	for w := 0; w < 4; w++ {
		for i := 0; i < 8; i++ {
			pub(100+w*8+i, sites[i%12])
		}
		flushN(t, m, 1) // maintenance observes the victim down
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
	// No Rejoin call anywhere below: maintenance rounds alone must take
	// the snapshot path and converge in bounded rounds.
	rounds := 0
	for ; !converged(); rounds++ {
		if rounds >= 2 {
			t.Fatalf("views not converged after %d maintenance rounds with zero operator rejoins", rounds)
		}
		flushN(t, m, 1)
	}
	if pr, ok := m.(interface{ ProactiveRejoins() int64 }); ok {
		if pr.ProactiveRejoins() == 0 {
			t.Fatal("views converged but no proactive rejoin fired — replay converged by luck, the law is vacuous")
		}
	}
	// The snapshot superseded the queued deltas: one more maintenance
	// round sends nothing to the rejoined site.
	msgs := net.Stats().Messages
	flushN(t, m, 1)
	if extra := net.Stats().Messages - msgs; extra != 0 {
		t.Fatalf("%d messages sent after proactive convergence — outboxes were not pruned", extra)
	}
}

// scheduleSeeds are the randomized-schedule law's seeds; three distinct
// interleavings per model (one under -short).
var scheduleSeeds = []uint64{17001, 17002, 17003}

// testMembershipSchedule: the generative oracle. Every model must
// survive randomized join/crash/partition/heal/loss interleavings —
// eventual recall, honest accounting, full admission, and same-seed
// determinism — with failures reported as replayable schedules.
func testMembershipSchedule(t *testing.T, cfg Config) {
	scfg := schedule.Config{
		Sites:        24,
		SitesPerZone: 4,
		Joiners:      3,
		Rounds:       10,
		EventRate:    0.5,
		PubsPerRound: 5,
	}
	seeds := scheduleSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		sched := schedule.Generate(seed, scfg)
		o, err := schedule.Run(sched, cfg.Make)
		if err != nil {
			t.Fatalf("seed %d: %v\nreplay:\n%s", seed, err, sched)
		}
		if o.Acked == 0 {
			t.Fatalf("seed %d: no publish was ever acknowledged\nreplay:\n%s", seed, sched)
		}
		if o.Recall < 0.99 {
			t.Fatalf("seed %d: recall %.3f after quiescence + %d convergence rounds, want >= 0.99\nreplay:\n%s",
				seed, o.Recall, o.ConvRounds, sched)
		}
		if o.Joins != scfg.Joiners {
			t.Fatalf("seed %d: %d/%d joiners admitted by quiescence\nreplay:\n%s", seed, o.Joins, scfg.Joiners, sched)
		}
		if o.Stats.Messages == 0 || o.Stats.Bytes == 0 {
			t.Fatalf("seed %d: no traffic accounted\nreplay:\n%s", seed, sched)
		}
		o2, err := schedule.Run(sched, cfg.Make)
		if err != nil {
			t.Fatalf("seed %d replay: %v\nreplay:\n%s", seed, err, sched)
		}
		if o != o2 {
			t.Fatalf("seed %d diverged across identical replays:\n%+v\nvs\n%+v\nreplay:\n%s", seed, o, o2, sched)
		}
	}
}
