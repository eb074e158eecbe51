package passnet

import (
	"fmt"
	"testing"

	"pass/internal/arch"
	"pass/internal/arch/archtest"
	"pass/internal/arch/scenario"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

func TestConformanceImmediate(t *testing.T) {
	archtest.Run(t, archtest.Config{
		Make: func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
			return New(net, sites, Options{ImmediateDigest: true})
		},
		MakeReplay: func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
			return New(net, sites, Options{ImmediateDigest: true, ManualRejoin: true})
		},
	})
}

func TestConformanceBatched(t *testing.T) {
	archtest.Run(t, archtest.Config{
		Make: func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
			return New(net, sites, Options{})
		},
		MakeReplay: func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
			return New(net, sites, Options{ManualRejoin: true})
		},
		// PullEvery 1 keeps the DuplicateSuppression law's round
		// comparison tight: an armed pair re-syncs on the very next tick,
		// so suppression can never cost the efficient leg a round.
		MakeEfficient: func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
			return New(net, sites, Options{EfficientGossip: true, PullEvery: 1})
		},
		NeedsTick: true,
	})
}

// TestConformanceEfficient runs the FULL conformance suite with the
// efficient dissemination path as the primary build: duplicate
// suppression, per-peer coalescing, and armed anti-entropy pulls must
// satisfy every law the naive path does — loss, churn, partitions,
// rejoins, and the randomized membership schedules. MakeEfficient stays
// nil here (the baseline-vs-efficient comparison lives in
// TestConformanceBatched, where Make IS the baseline).
func TestConformanceEfficient(t *testing.T) {
	archtest.Run(t, archtest.Config{
		Make: func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
			return New(net, sites, Options{EfficientGossip: true, PullEvery: 1})
		},
		MakeReplay: func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
			return New(net, sites, Options{EfficientGossip: true, PullEvery: 1, ManualRejoin: true})
		},
		NeedsTick: true,
	})
}

func TestPublishKeepsMetadataLocal(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{})
	net.ResetStats()
	if _, err := m.Publish(archtest.PubAt(1, sites[2])); err != nil {
		t.Fatal(err)
	}
	if wan := net.Stats().WANBytes; wan != 0 {
		t.Fatalf("batched publish crossed WAN: %d bytes", wan)
	}
	if m.SiteRecords(sites[2]) != 1 {
		t.Fatal("record not at producing site")
	}
	if m.PendingDigests() != 1 {
		t.Fatalf("pending digests = %d", m.PendingDigests())
	}
}

func TestImmediateDigestIsTiny(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{ImmediateDigest: true})
	p := archtest.PubAt(1, sites[0],
		provenance.Attr("zone", provenance.String("boston")),
		provenance.Attr("domain", provenance.String("traffic")))
	recSize := p.WireSize()
	net.ResetStats()
	if _, err := m.Publish(p); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	// Digest fan-out to 3 peers must cost far less than shipping the full
	// record to 3 peers would.
	if st.WANBytes >= int64(recSize*3) {
		t.Fatalf("digest bytes %d not smaller than full replication %d", st.WANBytes, recSize*3)
	}
	if m.PendingDigests() != 0 {
		t.Fatal("immediate mode left pending digests")
	}
}

func TestLocalQueryIsFreshWithoutGossip(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{})
	p := archtest.PubAt(1, sites[0], provenance.Attr("k", provenance.String("v")))
	m.Publish(p)
	// No Tick. The producing site itself sees its own data immediately.
	got, _, err := m.QueryAttr(sites[0], "k", provenance.String("v"))
	if err != nil || len(got) != 1 {
		t.Fatalf("local query = %d ids, %v", len(got), err)
	}
	// A remote site does not see it yet (digest pending)...
	got, _, _ = m.QueryAttr(sites[2], "k", provenance.String("v"))
	if len(got) != 0 {
		t.Fatal("remote site saw ungossiped record")
	}
	// ...until the gossip round.
	m.Tick()
	got, _, err = m.QueryAttr(sites[2], "k", provenance.String("v"))
	if err != nil || len(got) != 1 {
		t.Fatalf("post-gossip remote query = %d, %v", len(got), err)
	}
}

func TestQueryContactsOnlyDigestMatches(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{ImmediateDigest: true})
	// Only boston-0 holds traffic data; the other three hold weather.
	m.Publish(archtest.PubAt(1, sites[0], provenance.Attr("domain", provenance.String("traffic"))))
	for i, s := range sites[1:] {
		m.Publish(archtest.PubAt(byte(10+i), s, provenance.Attr("domain", provenance.String("weather"))))
	}
	got, _, err := m.QueryAttr(sites[3], "domain", provenance.String("traffic"))
	if err != nil || len(got) != 1 {
		t.Fatalf("query = %d, %v", len(got), err)
	}
	// Digest routing: only 1 remote site contacted (vs feddb's 3).
	if m.LastContacted() != 1 {
		t.Fatalf("contacted %d remote sites, want 1", m.LastContacted())
	}
}

func TestAncestryServerSideTraversal(t *testing.T) {
	// A long chain entirely at one remote site must resolve in ONE round
	// trip regardless of its depth.
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{ImmediateDigest: true})
	origins := []netsim.SiteID{sites[2]} // whole chain in london
	ids := archtest.ChainAt(t, m, origins, 30, 1)
	net.ResetStats()
	anc, _, err := m.QueryAncestors(sites[0], ids[len(ids)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != 29 {
		t.Fatalf("ancestors = %d, want 29", len(anc))
	}
	// One Call = 2 messages, independent of the 30-deep chain.
	if msgs := net.Stats().Messages; msgs > 4 {
		t.Fatalf("single-site chain took %d messages; server-side traversal broken", msgs)
	}
}

func TestAncestryCrossSiteCostScalesWithSites(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{ImmediateDigest: true})
	// Chain alternating across all 4 sites.
	ids := archtest.ChainAt(t, m, sites, 16, 1)
	net.ResetStats()
	anc, _, err := m.QueryAncestors(sites[0], ids[len(ids)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != 15 {
		t.Fatalf("ancestors = %d, want 15", len(anc))
	}
}

func TestUnknownSiteAndGhost(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites[:2], Options{})
	if _, err := m.Publish(archtest.PubAt(1, sites[3])); err == nil {
		t.Fatal("publish from non-member accepted")
	}
	var ghost provenance.ID
	ghost[3] = 0x77
	if _, _, err := m.Lookup(sites[0], ghost); err == nil {
		t.Fatal("ghost lookup succeeded")
	}
}

func TestReplicateOnRead(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{ImmediateDigest: true, ReplicateOnRead: true})
	p := archtest.PubAt(1, sites[2]) // data lives in london
	if _, err := m.Publish(p); err != nil {
		t.Fatal(err)
	}
	boston := sites[0]
	// First lookup crosses the WAN.
	_, d1, err := m.Lookup(boston, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Second lookup is served by the read replica: much faster, no WAN.
	net.ResetStats()
	rec, d2, err := m.Lookup(boston, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ComputeID() != p.ID {
		t.Fatal("replica returned wrong record")
	}
	if d2 >= d1 {
		t.Fatalf("replica lookup %v not faster than remote %v", d2, d1)
	}
	if net.Stats().WANBytes != 0 {
		t.Fatalf("replica hit crossed WAN: %d bytes", net.Stats().WANBytes)
	}
	if m.ReplicaHits() != 1 {
		t.Fatalf("replica hits = %d", m.ReplicaHits())
	}
	if m.ReplicaCount(boston) != 1 {
		t.Fatalf("replica count = %d", m.ReplicaCount(boston))
	}
}

func TestReplicationDisabledByDefault(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{ImmediateDigest: true})
	p := archtest.PubAt(1, sites[2])
	m.Publish(p)
	m.Lookup(sites[0], p.ID)
	m.Lookup(sites[0], p.ID)
	if m.ReplicaHits() != 0 {
		t.Fatal("replication active without opt-in")
	}
	if m.ReplicaCount(sites[0]) != 0 {
		t.Fatal("replica cached without opt-in")
	}
}

func TestConformanceWithReplication(t *testing.T) {
	archtest.Run(t, archtest.Config{
		Make: func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
			return New(net, sites, Options{ImmediateDigest: true, ReplicateOnRead: true})
		},
		MakeReplay: func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
			return New(net, sites, Options{ImmediateDigest: true, ReplicateOnRead: true, ManualRejoin: true})
		},
	})
}

// viewFingerprints snapshots every site's view content.
func viewFingerprints(m *Model, sites []netsim.SiteID) []uint64 {
	out := make([]uint64, len(sites))
	for i, s := range sites {
		out[i] = m.SiteView(s).Fingerprint()
	}
	return out
}

func TestSplitBrainPartitionHeal(t *testing.T) {
	net, sites := archtest.NewNetwork() // boston-0/1, london-0/1
	m := New(net, sites, Options{})
	boston, london := sites[:2], sites[2:]
	net.Partition(boston, london)

	// Each side publishes under the same attribute while partitioned.
	pb := archtest.PubAt(1, boston[0], provenance.Attr("domain", provenance.String("split")))
	pl := archtest.PubAt(2, london[0], provenance.Attr("domain", provenance.String("split")))
	for _, p := range []arch.Pub{pb, pl} {
		if _, err := m.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}

	// Split-brain: the same query from opposite sides returns different,
	// side-local result sets.
	gotB, _, err := m.QueryAttr(boston[1], "domain", provenance.String("split"))
	if err != nil {
		t.Fatal(err)
	}
	gotL, _, err := m.QueryAttr(london[1], "domain", provenance.String("split"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotB) != 1 || gotB[0] != pb.ID {
		t.Fatalf("boston querier saw %v, want only the boston record", gotB)
	}
	if len(gotL) != 1 || gotL[0] != pl.ID {
		t.Fatalf("london querier saw %v, want only the london record", gotL)
	}
	if m.SiteView(boston[1]).Fingerprint() == m.SiteView(london[1]).Fingerprint() {
		t.Fatal("views on opposite partition sides converged mid-partition")
	}
	if m.PendingDigests() == 0 {
		t.Fatal("cross-partition deltas should still be pending")
	}

	// Heal: the outbox drains to the other side and every view converges.
	net.HealPartition()
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if m.PendingDigests() != 0 {
		t.Fatalf("%d digests still pending after heal", m.PendingDigests())
	}
	fps := viewFingerprints(m, sites)
	for i, fp := range fps {
		if fp != fps[0] {
			t.Fatalf("site %d view diverged after heal: %x vs %x", i, fp, fps[0])
		}
	}
	for _, q := range sites {
		got, _, err := m.QueryAttr(q, "domain", provenance.String("split"))
		if err != nil || len(got) != 2 {
			t.Fatalf("post-heal query from %d = %d ids, %v", q, len(got), err)
		}
	}
}

func TestGossipBytesChargedPerReceivingPeer(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{})
	// Cut boston-0 off from everyone: its delta reaches nobody, so a
	// partial delivery charges exactly the per-peer deliveries that
	// actually happened.
	net.Partition([]netsim.SiteID{sites[0]})
	if _, err := m.Publish(archtest.PubAt(1, sites[0], provenance.Attr("k", provenance.String("v")))); err != nil {
		t.Fatal(err)
	}
	net.ResetStats()
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if b := net.Stats().Bytes; b != 0 {
		t.Fatalf("partitioned gossip charged %d bytes; nothing was transmitted", b)
	}

	// Heal and gossip again: now every one of the 3 peers' deliveries is
	// charged individually — bytes must be exactly 3 × the delta size.
	net.HealPartition()
	net.ResetStats()
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.Messages != 3 {
		t.Fatalf("delta fan-out sent %d messages, want 3 (one per receiving peer)", st.Messages)
	}
	if st.Bytes%3 != 0 || st.Bytes == 0 {
		t.Fatalf("bytes %d not three equal per-peer digest charges", st.Bytes)
	}
}

func TestViewDeterminismUnderLoss(t *testing.T) {
	run := func() []uint64 {
		net, sites := netsim.RandomTopology(netsim.Config{LossRate: 0.2, Seed: 77}, 4, 3, 99)
		m := New(net, sites, Options{})
		for i := 0; i < 24; i++ {
			p := scenario.PubN(i, sites[(i*5)%len(sites)],
				provenance.Attr("domain", provenance.String("det")))
			if _, err := m.Publish(p); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < 3; r++ { // deliberately too few rounds: views stay partial
			if err := m.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		return viewFingerprints(m, sites)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("site %d view diverged across identical seeded runs: %x vs %x", i, a[i], b[i])
		}
	}
}

func TestDuplicateDeltaRedeliveryIsIdempotent(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{})
	p := archtest.PubAt(1, sites[0], provenance.Attr("k", provenance.String("v")))
	if _, err := m.Publish(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	fps := viewFingerprints(m, sites)
	// Re-offering the same publication (the fault contract's idempotent
	// re-publish) cuts a new delta carrying metadata every view already
	// holds; applying it must not change any view's content.
	if _, err := m.Publish(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	for i, fp := range viewFingerprints(m, sites) {
		if fp != fps[i] {
			t.Fatalf("site %d view changed on duplicate re-delivery", i)
		}
	}
	got, _, err := m.QueryAttr(sites[3], "k", provenance.String("v"))
	if err != nil || len(got) != 1 {
		t.Fatalf("post-duplicate query = %v, %v", got, err)
	}
}

func TestStaleViewRoutesOnlyToDeliveredSites(t *testing.T) {
	// Batched mode, no tick: a remote querier's view is empty, so its
	// QueryAttr contacts nobody — the O(matching sites) candidate set is
	// literally zero sites, not a scan of all peers.
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{})
	if _, err := m.Publish(archtest.PubAt(1, sites[0], provenance.Attr("k", provenance.String("v")))); err != nil {
		t.Fatal(err)
	}
	got, _, err := m.QueryAttr(sites[2], "k", provenance.String("v"))
	if err != nil || len(got) != 0 {
		t.Fatalf("stale view query = %v, %v", got, err)
	}
	if m.LastContacted() != 0 {
		t.Fatalf("stale view contacted %d remote sites, want 0", m.LastContacted())
	}
}

// TestRejoinSnapshotPrunesOutbox: the satellite law behind FastRejoin,
// pinned at the model level — a rejoin snapshot supersedes the deltas
// queued for the rejoined site, so the senders drop them without ever
// replaying them on the wire.
func TestRejoinSnapshotPrunesOutbox(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{})
	victim := sites[3]

	for i := byte(1); i <= 3; i++ {
		if _, err := m.Publish(archtest.PubAt(i, sites[int(i)%3],
			provenance.Attr("domain", provenance.String("rj")))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}

	// The victim crashes; the federation keeps publishing and gossiping,
	// so deltas pile up in the senders' outboxes addressed to it.
	net.Fail(victim)
	want := 3
	for i := byte(10); i < 14; i++ {
		if _, err := m.Publish(archtest.PubAt(i, sites[int(i)%3],
			provenance.Attr("domain", provenance.String("rj")))); err != nil {
			t.Fatal(err)
		}
		want++
	}
	for i := 0; i < 2; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if m.PendingDigests() == 0 {
		t.Fatal("no digests queued for the crashed site — the scenario is vacuous")
	}

	net.Heal(victim)
	if _, err := m.Rejoin(victim); err != nil {
		t.Fatal(err)
	}
	if n := m.PendingDigests(); n != 0 {
		t.Fatalf("%d publications still queued after rejoin snapshot — outboxes were not pruned", n)
	}
	// Nothing left to replay: a maintenance round must stay silent.
	msgs := net.Stats().Messages
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().Messages; got != msgs {
		t.Fatalf("tick after rejoin sent %d messages — pruned deltas were replayed", got-msgs)
	}
	// And the snapshot really carried the missed state: the rejoined site
	// resolves everything published while it was down.
	got, _, err := m.QueryAttr(victim, "domain", provenance.String("rj"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want {
		t.Fatalf("rejoined site sees %d/%d records", len(got), want)
	}
}

// TestProactiveRejoinOnTick: a recovered site takes the snapshot path by
// itself — the Tick after its heal detects the down→up transition,
// fetches the snapshot, and prunes the senders' queues, with no operator
// Rejoin call anywhere.
func TestProactiveRejoinOnTick(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{})
	victim := sites[3]

	if _, err := m.Publish(archtest.PubAt(1, sites[0], provenance.Attr("domain", provenance.String("pro")))); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	net.Fail(victim)
	for i := byte(10); i < 13; i++ {
		if _, err := m.Publish(archtest.PubAt(i, sites[int(i)%3], provenance.Attr("domain", provenance.String("pro")))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Tick(); err != nil { // observes the victim down, queues deltas
		t.Fatal(err)
	}
	if m.PendingDigests() == 0 {
		t.Fatal("no digests queued for the crashed site — the scenario is vacuous")
	}

	net.Heal(victim)
	if err := m.Tick(); err != nil { // detects recovery, snapshots, prunes
		t.Fatal(err)
	}
	if got := m.ProactiveRejoins(); got != 1 {
		t.Fatalf("proactive rejoins = %d, want 1", got)
	}
	if n := m.PendingDigests(); n != 0 {
		t.Fatalf("%d publications still queued after the proactive snapshot", n)
	}
	got, _, err := m.QueryAttr(victim, "domain", provenance.String("pro"))
	if err != nil || len(got) != 4 {
		t.Fatalf("recovered site sees %d/4 records, %v", len(got), err)
	}
}

// TestManualRejoinKnob: with ManualRejoin set, Tick never snapshots — a
// recovered site catches up only through the senders' outbox replay, the
// pre-proactive behavior E16's replay rows measure.
func TestManualRejoinKnob(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{ManualRejoin: true})
	victim := sites[3]
	if _, err := m.Publish(archtest.PubAt(1, sites[0], provenance.Attr("domain", provenance.String("man")))); err != nil {
		t.Fatal(err)
	}
	net.Fail(victim)
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	net.Heal(victim)
	for i := 0; i < 2; i++ { // replay rounds: anti-entropy drains the outbox
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.ProactiveRejoins(); got != 0 {
		t.Fatalf("manual mode fired %d proactive rejoins", got)
	}
	if m.PendingDigests() != 0 {
		t.Fatal("outbox replay did not drain after heal")
	}
	got, _, err := m.QueryAttr(victim, "domain", provenance.String("man"))
	if err != nil || len(got) != 1 {
		t.Fatalf("replay-recovered site sees %d/1 records, %v", len(got), err)
	}
}

// TestBloomFalsePositiveChargedRoundTrip: candidate routing goes through
// the wire-level Bloom filters, so a key that false-positives against a
// peer's filter costs a real, charged, empty round trip — and the model
// counts it.
func TestBloomFalsePositiveChargedRoundTrip(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{ImmediateDigest: true})
	// boston-0 publishes one attribute; every peer's view now holds a
	// small Bloom filter of boston-0's keys.
	if _, err := m.Publish(archtest.PubAt(1, sites[0], provenance.Attr("k", provenance.String("target")))); err != nil {
		t.Fatal(err)
	}
	querier := sites[3]
	view := m.SiteView(querier)

	// Brute-force a value that the exact index does NOT list anywhere but
	// that collides with boston-0's filter bits: a guaranteed false
	// positive. Deterministic: the filter contents are fixed by the
	// publish above.
	fpVal := ""
	for i := 0; i < 1<<20; i++ {
		v := provenance.String(fmt.Sprintf("fp-%d", i))
		mk := "k" + "\x00" + string(v.Canonical())
		if len(view.SitesFor(mk)) == 0 && view.MayHold(sites[0], mk) {
			fpVal = v.Str
			break
		}
	}
	if fpVal == "" {
		t.Fatal("no Bloom collision found in 2^20 candidates — filter too large for the test")
	}

	before := net.Stats()
	got, _, err := m.QueryAttr(querier, "k", provenance.String(fpVal))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("false-positive query returned %d ids", len(got))
	}
	st := net.Stats()
	// One remote Call (request + response) to the misrouted peer, plus
	// the querier's free local consult: the wasted round trip's bytes and
	// WAN crossing are really charged.
	if st.Messages-before.Messages < 2 {
		t.Fatalf("false positive cost %d messages, want the full round trip", st.Messages-before.Messages)
	}
	if st.WANBytes == before.WANBytes {
		t.Fatal("false-positive round trip crossed no WAN — bytes were not charged")
	}
	if m.FalsePositives() != 1 {
		t.Fatalf("false positives = %d, want 1", m.FalsePositives())
	}
	if m.RemoteContacts() == 0 {
		t.Fatal("remote contact not counted")
	}

	// The real key still answers exactly, and is not miscounted as a FP.
	got, _, err = m.QueryAttr(querier, "k", provenance.String("target"))
	if err != nil || len(got) != 1 {
		t.Fatalf("exact query = %d ids, %v", len(got), err)
	}
	if m.FalsePositives() != 1 {
		t.Fatalf("exact query raised the FP count to %d", m.FalsePositives())
	}
}

// TestOutboxRetentionBoundsLeak: the outbox-leak regression. A peer that
// dies and never comes back must stop accumulating queued deliveries once
// it passes the retention window — before the fix, every delta ever cut
// stayed queued for the dead peer forever, growing without bound. A
// thousand rounds of continuous publishing against a permanently-dead
// peer must leave the pending count bounded in both gossip modes, and the
// drop must be safe: if the peer ever does heal, the snapshot path still
// hands it everything it missed.
func TestOutboxRetentionBoundsLeak(t *testing.T) {
	const rounds = 1000
	domain := provenance.String("leak")
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"batched", Options{}},
		{"efficient", Options{EfficientGossip: true, PullEvery: 1}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			net, sites := archtest.NewNetwork()
			m := New(net, sites, mode.opts)
			dead := sites[3]
			net.Fail(dead)
			for i := 0; i < rounds; i++ {
				if _, err := m.Publish(scenario.PubN(i, sites[i%3], provenance.Attr("domain", domain))); err != nil {
					t.Fatalf("publish %d: %v", i, err)
				}
				if err := m.Tick(); err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
			}
			if got := m.PendingDigests(); got > 4*DefaultPullEvery+1 {
				t.Fatalf("%d publications still queued against a peer dead for %d rounds — the outbox leaks", got, rounds)
			}
			net.Heal(dead)
			if err := m.Tick(); err != nil { // proactive snapshot covers the dropped deltas
				t.Fatal(err)
			}
			got, _, err := m.QueryAttr(dead, "domain", domain)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != rounds {
				t.Fatalf("healed peer sees %d/%d records — retention dropped content, not just deliveries", len(got), rounds)
			}
		})
	}

	// The knob still opens the window on request: explicitly unbounded
	// retention keeps every delivery queued — the pre-proactive replay
	// behavior E16's replay rows measure.
	t.Run("unbounded", func(t *testing.T) {
		net, sites := archtest.NewNetwork()
		m := New(net, sites, Options{DeadRetention: -1})
		net.Fail(sites[3])
		const kept = 50
		for i := 0; i < kept; i++ {
			if _, err := m.Publish(scenario.PubN(i, sites[i%3], provenance.Attr("domain", domain))); err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
			if err := m.Tick(); err != nil {
				t.Fatalf("tick %d: %v", i, err)
			}
		}
		if got := m.PendingDigests(); got != kept {
			t.Fatalf("unbounded retention queued %d/%d publications", got, kept)
		}
	})
}

// TestRejoinFailsCleanlyWhileDown: a rejoin attempted before the site is
// back is an unavailable error and must change nothing.
func TestRejoinFailsCleanlyWhileDown(t *testing.T) {
	net, sites := archtest.NewNetwork()
	m := New(net, sites, Options{})
	if _, err := m.Publish(archtest.PubAt(1, sites[0])); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	net.Fail(sites[3])
	if _, err := m.Rejoin(sites[3]); !arch.IsUnavailable(err) {
		t.Fatalf("rejoin of a down site: err = %v, want unavailable", err)
	}
	net.Heal(sites[3])
	if _, err := m.Rejoin(sites[3]); err != nil {
		t.Fatalf("rejoin after heal: %v", err)
	}
}
