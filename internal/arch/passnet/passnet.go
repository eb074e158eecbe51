// Package passnet implements the paper's own proposal (Section V): merge
// local PASS installations into a single globally searchable archive
// while keeping data where it belongs — "because sensor data is locale
// specific ... it should be stored near the network or its primary
// users" (Section III).
//
// Design, matching the research agenda's requirements:
//
//   - Publish commits to the producing site's local PASS only; no record
//     metadata crosses the WAN at ingest.
//   - Each site gossips a compact digest delta to its peers: a Bloom
//     filter of its attribute postings plus id→site location entries
//     (siteview.Delta). Digests ride on Tick (periodic) or, when
//     ImmediateDigest is set, piggyback on every publish (tiny messages,
//     the freshness/bandwidth ablation).
//   - Every site maintains its OWN siteview.View, updated only when a
//     delta is actually delivered to it. Wire bytes are charged per
//     receiving peer, deltas are sequenced per origin and delivered in
//     order, and a peer that is down or partitioned simply keeps the
//     delta in the sender's outbox until a later gossip round reaches it
//     (anti-entropy). Two sites therefore disagree exactly when different
//     deltas have reached them — partitions produce observable
//     split-brain query results, and full delivery restores convergence
//     (the law the conformance suite asserts).
//   - QueryAttr consults the querying site's view and contacts only the
//     sites whose delivered digests may hold the attribute — typically
//     one or two, not all (contrast with feddb's full fan-out).
//     Candidate selection goes through the per-peer Bloom filters
//     (View.MayHold): the wire-level digest is the routing authority, so
//     a Bloom false positive really costs an extra empty round trip —
//     charged bytes and all — never a wrong answer. FalsePositives and
//     RemoteContacts expose the measured misroute rate (E15's fp-rate
//     column).
//   - A site that crashed and came back notices its own recovery inside
//     Tick (it was down last round, it is live now) and triggers the
//     Rejoin snapshot itself — rejoin-by-snapshot is the default, not an
//     operator action. Options.ManualRejoin restores the operator-driven
//     behavior so snapshot-vs-replay comparisons (E16) stay expressible.
//   - QueryAncestors chases lineage site to site, but each visited site
//     resolves the whole locally-held sub-DAG in one round trip
//     (server-side traversal), so a chain spanning k sites costs ~k round
//     trips no matter how long it is (E11).
package passnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pass/internal/arch"
	"pass/internal/arch/siteview"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// Model is the distributed PASS.
type Model struct {
	arch.AdmissionSlot
	mu    sync.Mutex
	net   arch.Network
	sites []netsim.SiteID

	stores map[netsim.SiteID]*arch.SiteStore

	// views holds each site's own soft-state picture of the federation,
	// built strictly from deltas DELIVERED to that site (plus the site's
	// own publications, which it knows without gossip).
	views map[netsim.SiteID]*siteview.View
	// nextSeq numbers each origin's outgoing deltas.
	nextSeq map[netsim.SiteID]uint64

	// pending digests not yet cut into a delta, per producing site.
	pending map[netsim.SiteID][]arch.Pub
	// outbox holds digest deltas whose delivery is in progress: each
	// delta tracks which peers still need it, so a lost, partitioned, or
	// crashed-peer send is retried on a later gossip round without
	// re-sending to peers that already heard it. Per peer, deltas are
	// delivered in sequence order (a peer never sees delta n+1 before n).
	outbox map[netsim.SiteID][]*outDelta

	// ImmediateDigest pushes digest deltas on every publish instead of
	// waiting for Tick.
	immediate bool
	// manualRejoin disables the proactive-rejoin pass in Tick.
	manualRejoin bool
	// efficient enables the gossip-efficiency path: sender-side duplicate
	// suppression (dupemap), per-peer delta coalescing, and the
	// lazy-push/periodic-pull hybrid. Off by default so the byte-for-byte
	// pinned baseline behavior is untouched.
	efficient bool
	// pullEvery is the anti-entropy pull cadence in ticks (efficient
	// mode); deadRetention bounds, in rounds-dead, how long outboxes keep
	// queueing for a peer that never heals (≤0 = unbounded).
	pullEvery     int
	deadRetention int
	// tickCount drives the pull cadence; roundsDown counts consecutive
	// Tick rounds each site has been observed down (retention clock).
	tickCount  int
	roundsDown map[netsim.SiteID]int
	// suppressed is the dupemap: sender→peer pairs whose last push was
	// LOST in transit. While armed, gossip rounds stop re-pushing the
	// pair's queued deltas (each skipped re-offer counted) and the
	// periodic anti-entropy pull carries the content instead; delivery or
	// outbox pruning clears the entry — round-expiring by construction.
	suppressed map[suppKey]bool
	// Gossip-path accounting (arch.GossipMeter): bytes charged by the
	// dissemination layer, re-offers suppressed, pull exchanges run.
	gossipBytes  int64
	nDupSuppress int64
	nPullRounds  int64
	// wasDown marks sites observed down by a Tick round; a site marked
	// here that is live again has RECOVERED, which is what triggers a
	// proactive rejoin. Cleared by a successful Rejoin.
	wasDown map[netsim.SiteID]bool
	// nProactive counts rejoins Tick triggered on its own (zero under
	// ManualRejoin — the ProactiveRejoin law's observable).
	nProactive int64

	rto *arch.RTO

	// replicate enables replicate-on-read; replicas holds each site's
	// read cache. Records are immutable, so cached replicas never
	// invalidate.
	replicate bool
	replicas  map[netsim.SiteID]map[provenance.ID]*provenance.Record

	// lastContacted reports sites contacted by the most recent QueryAttr.
	lastContacted int
	// remoteContacts / fpContacts count, across all QueryAttrs, remote
	// candidate round trips and the subset that were Bloom misroutes —
	// contacted on a filter match, listed by no delivered delta, and
	// empty-handed (the false positive's charged-but-useless round trip).
	remoteContacts int64
	fpContacts     int64
	// replicaHits counts lookups served from a read replica.
	replicaHits int64
}

// Options tunes the distributed PASS.
type Options struct {
	// ImmediateDigest gossips digest deltas synchronously on publish
	// (freshness at the price of n-1 tiny messages per publish). When
	// false, deltas batch until the next Tick.
	ImmediateDigest bool
	// ManualRejoin restores the pre-proactive behavior: a recovered site
	// catches up only through senders' anti-entropy replay unless an
	// operator calls Rejoin explicitly. By default a site detects its own
	// recovery inside Tick and takes the snapshot path itself. The knob
	// exists so E16's rejoin-vs-replay rows (and the FastRejoin law's
	// replay leg) still have a replay-only model to measure.
	ManualRejoin bool
	// ReplicateOnRead caches fetched records at the querying site, the
	// paper's Section V extension ("replication is desirable for
	// reliability and for query performance; supporting replication
	// cheaply is an interesting problem"). Replication here is free at
	// write time — replicas materialize only along actual read paths, so
	// popular data converges toward its consumers. Provenance records are
	// immutable, so replicas can never go stale.
	ReplicateOnRead bool
	// EfficientGossip switches the dissemination layer onto the
	// byte-efficient path: (1) dupemap duplicate suppression — a
	// re-offered publication whose digest the origin's view already
	// carries is dropped before a delta is cut, and a sender whose push
	// to a peer was lost in transit stops re-pushing that pair until the
	// anti-entropy pull resolves it; (2) per-peer coalescing — every
	// delta a peer still owes is shipped as ONE envelope (one header, one
	// filter, deduplicated entries) instead of one charged message per
	// delta; (3) lazy-push + periodic-pull — lost pushes are not blindly
	// retried at full price every round; a low-frequency pull exchange
	// (fingerprint advert, seq-vector reply, targeted diff) catches what
	// the push path dropped, and rejoin catch-up ships a seq-vector diff
	// instead of the donor's whole snapshot. Convergence and determinism
	// are unchanged — same final views, fewer bytes — pinned by the
	// DuplicateSuppression conformance law.
	EfficientGossip bool
	// PullEvery sets the anti-entropy pull cadence in Ticks for
	// EfficientGossip (0 = DefaultPullEvery). The pull is ARMED, not
	// unconditional: it only contacts pairs the dupemap has muted, so a
	// converged federation stays silent.
	PullEvery int
	// DeadRetention bounds how many consecutive rounds-dead a peer may
	// accumulate before senders stop queueing deltas for it (the outbox
	// leak fix): once exceeded, the peer is dropped from every queued
	// delta's delivery set and will catch up through the rejoin path when
	// it heals. 0 picks the default — 4×PullEvery rounds, or unbounded
	// under ManualRejoin, where replay is the only recovery path and
	// dropping would orphan the peer. Negative = explicitly unbounded.
	DeadRetention int
}

// DefaultPullEvery is the anti-entropy pull cadence (in Ticks) when
// Options.PullEvery is zero.
const DefaultPullEvery = 2

// deltaAdvertWire is the wire size of the anti-entropy pull's opening
// advert: a header plus the sender's view fingerprint — enough for the
// peer to decide the views differ and answer with its seq vector.
const deltaAdvertWire = 40

// suppKey identifies one sender→peer gossip pair in the dupemap.
type suppKey struct {
	from, to netsim.SiteID
}

// New builds a distributed PASS over the given sites.
func New(net arch.Network, sites []netsim.SiteID, opts Options) *Model {
	pullEvery := opts.PullEvery
	if pullEvery <= 0 {
		pullEvery = DefaultPullEvery
	}
	retention := opts.DeadRetention
	if retention == 0 {
		if opts.ManualRejoin {
			retention = -1 // replay is the only recovery path; never drop
		} else {
			retention = 4 * pullEvery
		}
	}
	m := &Model{
		net:           net,
		sites:         append([]netsim.SiteID(nil), sites...),
		stores:        make(map[netsim.SiteID]*arch.SiteStore),
		views:         make(map[netsim.SiteID]*siteview.View),
		nextSeq:       make(map[netsim.SiteID]uint64),
		pending:       make(map[netsim.SiteID][]arch.Pub),
		outbox:        make(map[netsim.SiteID][]*outDelta),
		immediate:     opts.ImmediateDigest,
		manualRejoin:  opts.ManualRejoin,
		efficient:     opts.EfficientGossip,
		pullEvery:     pullEvery,
		deadRetention: retention,
		roundsDown:    make(map[netsim.SiteID]int),
		suppressed:    make(map[suppKey]bool),
		wasDown:       make(map[netsim.SiteID]bool),
		rto:           arch.NewRTO(0x9A55E7),
		replicate:     opts.ReplicateOnRead,
		replicas:      make(map[netsim.SiteID]map[provenance.ID]*provenance.Record),
	}
	for _, s := range sites {
		m.stores[s] = arch.NewSiteStore()
		m.views[s] = siteview.NewView(s)
		m.replicas[s] = make(map[provenance.ID]*provenance.Record)
	}
	return m
}

// Name implements arch.Model.
func (m *Model) Name() string { return "passnet" }

// SiteView implements siteview.Exposer: the given site's current view.
func (m *Model) SiteView(s netsim.SiteID) *siteview.View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.views[s]
}

// Publish commits locally; metadata never leaves the zone unless
// ImmediateDigest pushes the tiny delta.
func (m *Model) Publish(p arch.Pub) (time.Duration, error) {
	st, ok := m.stores[p.Origin]
	if !ok {
		return 0, fmt.Errorf("passnet: unknown site %d", p.Origin)
	}
	var wait time.Duration
	if adm := m.Admission(); adm != nil {
		// Publishes land locally, so the service cost is near zero and
		// the queue bound rarely bites; admission here is per-producer
		// fairness (the token buckets), protecting the gossip fan-out
		// from one hot producer.
		est, _ := m.net.Latency(p.Origin, p.Origin, p.WireSize())
		w, err := adm.Offer(int64(p.Origin), est)
		if err != nil {
			return 0, err
		}
		wait = w
	}
	d, err := m.net.Send(p.Origin, p.Origin, p.WireSize())
	d += wait
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	st.Add(p.ID, p.Rec)
	m.pending[p.Origin] = append(m.pending[p.Origin], p)
	m.mu.Unlock()
	if m.immediate {
		if err := m.gossipFrom(p.Origin); err != nil {
			return d, err
		}
	}
	return d, nil
}

// outDelta is one digest delta in flight: the sequenced delta, the
// publications it covers (pending-visibility accounting), and the peers
// that have not yet received it.
type outDelta struct {
	delta     *siteview.Delta
	pubs      []arch.Pub
	size      int
	remaining map[netsim.SiteID]struct{}
}

// cutDelta seals site's pending publications into a sequenced delta and
// applies it to the site's OWN view immediately — a site always knows its
// own holdings; only its peers wait for delivery. Callers hold m.mu.
func (m *Model) cutDelta(site netsim.SiteID) {
	pubs := m.pending[site]
	if len(pubs) == 0 {
		return
	}
	delete(m.pending, site)
	if m.efficient {
		// Dupemap, publish side: a re-offered publication (E14's
		// at-least-once client re-sends when an ack is lost) whose digest
		// this origin's view already carries would gossip pure redundancy
		// to every peer — drop it before the delta is cut. Records are
		// immutable, so an ID the view locates here is bit-identical to
		// the re-offer; earlier deltas still queued cover any peer that
		// has not heard it yet.
		kept := pubs[:0:0]
		seen := make(map[provenance.ID]struct{}, len(pubs))
		for _, p := range pubs {
			if _, dup := seen[p.ID]; dup {
				m.nDupSuppress++
				continue
			}
			if home, known := m.views[site].Locate(p.ID); known && home == site {
				m.nDupSuppress++
				continue
			}
			seen[p.ID] = struct{}{}
			kept = append(kept, p)
		}
		pubs = kept
		if len(pubs) == 0 {
			return // everything was a duplicate; nothing to gossip
		}
	}
	ids := make([]provenance.ID, 0, len(pubs))
	var attrKeys []string
	for _, p := range pubs {
		ids = append(ids, p.ID)
		for _, a := range arch.QueriableAttrs(p.Rec) {
			attrKeys = append(attrKeys, a.Key+"\x00"+string(a.Value.Canonical()))
		}
	}
	m.nextSeq[site]++
	delta := siteview.NewDelta(site, m.nextSeq[site], ids, attrKeys)
	m.views[site].Apply(delta)
	rem := make(map[netsim.SiteID]struct{}, len(m.sites)-1)
	for _, p := range m.sites {
		if p != site {
			rem[p] = struct{}{}
		}
	}
	m.outbox[site] = append(m.outbox[site], &outDelta{
		delta: delta, pubs: pubs, size: delta.WireSize(), remaining: rem,
	})
}

// gossipFrom pushes site's queued digest deltas to every peer that still
// needs them. Delivery is tracked per peer, and the digest's wire bytes
// are charged once per receiving peer per attempt — a delta fanned out to
// 40 peers costs 40 deltas' worth of bandwidth, and a retransmission to a
// peer that missed it costs again. A send lost in transit, blocked by a
// partition, or aimed at a crashed peer keeps that peer in the delta's
// remaining set and is retried on the next gossip round — the anti-
// entropy that lets a rejoining or re-connected site catch its view up.
// Per peer, deltas go out strictly in sequence order: a peer whose copy
// of delta n failed is not offered delta n+1 this round, so views apply
// deltas in order and duplicates are the only idempotence case left.
func (m *Model) gossipFrom(site netsim.SiteID) error {
	if m.net.IsDown(site) {
		return nil // a crashed site gossips nothing; retried after recovery
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cutDelta(site)
	if len(m.outbox[site]) == 0 {
		return nil
	}
	if m.efficient {
		return m.gossipEfficient(site)
	}
	// blocked marks peers whose next-in-sequence delta failed this round;
	// later deltas must not overtake it.
	blocked := make(map[netsim.SiteID]bool)
	var live []*outDelta
	for _, od := range m.outbox[site] {
		// Peers in deterministic site order: map-order iteration would
		// scramble the packet-loss draws across runs.
		for _, peer := range m.sites {
			if _, need := od.remaining[peer]; !need {
				continue
			}
			if m.expired(peer) {
				// The outbox-leak fix: a peer dead past the retention
				// window stops accumulating deliveries; rejoin catch-up
				// covers it if it ever heals.
				delete(od.remaining, peer)
				continue
			}
			if blocked[peer] {
				continue
			}
			_, err := m.net.Send(site, peer, od.size)
			switch {
			case err == nil:
				m.gossipBytes += int64(od.size)
				delete(od.remaining, peer)
				m.views[peer].Apply(od.delta)
			case errors.Is(err, netsim.ErrMsgLost):
				// Charged by the network even though it never arrived —
				// the waste the efficient path's dupemap avoids.
				m.gossipBytes += int64(od.size)
				blocked[peer] = true
			case arch.IsUnavailable(err):
				// Partitioned or peer down: free fail, keep the peer in
				// remaining, hold back its later deltas, retry next round.
				blocked[peer] = true
			default:
				return err
			}
		}
		if len(od.remaining) > 0 {
			live = append(live, od)
		}
	}
	m.outbox[site] = live
	return nil
}

// expired reports whether a peer has been dead longer than the outbox
// retention window. Callers hold m.mu.
func (m *Model) expired(peer netsim.SiteID) bool {
	return m.deadRetention > 0 && m.roundsDown[peer] > m.deadRetention
}

// gossipEfficient is gossipFrom's efficient-mode send pass: per peer, the
// queued deltas it still owes travel as ONE coalesced envelope (header,
// filter, and re-listed entries paid once), a pair the dupemap has muted
// is skipped entirely (the armed pull will carry it), and peers dead past
// the retention window are dropped from the queue. Per-peer sequence
// order is preserved trivially — a peer receives everything it is owed in
// one in-order batch or nothing. Callers hold m.mu.
func (m *Model) gossipEfficient(site netsim.SiteID) error {
	for _, peer := range m.sites {
		if peer == site {
			continue
		}
		if m.expired(peer) {
			for _, od := range m.outbox[site] {
				delete(od.remaining, peer)
			}
			continue
		}
		var need []*outDelta
		for _, od := range m.outbox[site] {
			if _, ok := od.remaining[peer]; ok {
				need = append(need, od)
			}
		}
		if len(need) == 0 {
			continue
		}
		if m.suppressed[suppKey{site, peer}] {
			// Dupemap, transit side: the last push to this peer was lost;
			// re-pushing every round would burn the envelope's bytes again
			// each time. Count the muted re-offers and let the periodic
			// pull exchange resolve the pair instead.
			m.nDupSuppress += int64(len(need))
			continue
		}
		size := m.coalescedSize(need)
		_, err := m.net.Send(site, peer, size)
		switch {
		case err == nil:
			m.gossipBytes += int64(size)
			for _, od := range need {
				delete(od.remaining, peer)
				m.views[peer].Apply(od.delta)
			}
		case errors.Is(err, netsim.ErrMsgLost):
			m.gossipBytes += int64(size)
			m.suppressed[suppKey{site, peer}] = true
		case arch.IsUnavailable(err):
			// Partitioned or down: free fail, retry next round.
		default:
			return err
		}
	}
	live := m.outbox[site][:0]
	for _, od := range m.outbox[site] {
		if len(od.remaining) > 0 {
			live = append(live, od)
		}
	}
	m.outbox[site] = live
	return nil
}

// coalescedSize prices the single envelope carrying the given queued
// deltas (ascending seq, one origin). Callers hold m.mu.
func (m *Model) coalescedSize(need []*outDelta) int {
	if len(need) == 1 {
		return need[0].size
	}
	deltas := make([]*siteview.Delta, len(need))
	for i, od := range need {
		deltas[i] = od.delta
	}
	return siteview.CoalescedWireSize(deltas)
}

// Rejoin implements arch.Rejoiner: an explicit state transfer for a site
// recovering from a crash or a long partition. Instead of waiting for
// every sender's outbox to replay its queued deltas one by one (each with
// its own header and filter, each a separate anti-entropy retry), the
// rejoining site asks its nearest live peer for a snapshot of that peer's
// whole view and folds it in — one round trip, snapshot bytes charged at
// the view's wire size. The merge fast-forwards the rejoiner's per-origin
// sequence numbers, so every sender whose queued delta the snapshot
// already covers prunes the rejoiner from that delta's delivery set:
// the outbox drains without re-sending what the snapshot carried.
//
// A rejoin while the site is still down, or with no reachable live peer,
// fails with an unavailable error and changes nothing — the site keeps
// catching up through ordinary gossip anti-entropy instead.
func (m *Model) Rejoin(s netsim.SiteID) (time.Duration, error) {
	if m.net.IsDown(s) {
		return 0, fmt.Errorf("%w: rejoining site %d", netsim.ErrSiteDown, s)
	}
	m.mu.Lock()
	view, ok := m.views[s]
	if !ok {
		m.mu.Unlock()
		return 0, fmt.Errorf("passnet: unknown site %d", s)
	}
	donor, ok := m.nearestLivePeer(s)
	if !ok {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w: no live donor for site %d", netsim.ErrSiteDown, s)
	}
	snap := m.views[donor]
	// Efficient mode replaces the full-snapshot transfer with the pull
	// protocol's targeted diff: the rejoiner sends its seq vector, the
	// donor answers with only the content the vector proves missing. A
	// site that missed a handful of deltas pays for those deltas, not for
	// the donor's whole accumulated view.
	reqSize, respSize := arch.ReqOverhead, arch.RespOverhead+snap.WireSize()
	if m.efficient {
		reqSize = view.SeqVectorWireSize()
		respSize = arch.RespOverhead + siteview.DiffWireSize(snap, view)
	}
	m.mu.Unlock()

	d, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
		return m.net.Call(s, donor, reqSize, respSize)
	})
	if err != nil {
		return d, err
	}
	m.mu.Lock()
	m.gossipBytes += int64(reqSize + respSize)
	if m.efficient {
		m.nPullRounds++
	}
	view.Merge(snap)
	m.pruneOutboxFor(s)
	delete(m.wasDown, s) // recovered and caught up; no proactive retry due
	m.mu.Unlock()
	return d, nil
}

// nearestLivePeer picks the reachable peer with the lowest network
// latency from s (deterministic: ties break on site order). Callers hold
// m.mu.
func (m *Model) nearestLivePeer(s netsim.SiteID) (netsim.SiteID, bool) {
	best := netsim.InvalidSite
	var bestLat time.Duration
	for _, p := range m.sites {
		if p == s || m.net.IsDown(p) || m.net.Partitioned(s, p) {
			continue
		}
		lat, err := m.net.Latency(s, p, arch.ReqOverhead)
		if err != nil {
			continue
		}
		if best == netsim.InvalidSite || lat < bestLat {
			best, bestLat = p, lat
		}
	}
	return best, best != netsim.InvalidSite
}

// pruneOutboxFor drops the given site from every queued delta its view
// has already covered (sequence number at or below the view's applied
// seq for that origin) — the senders' reaction to a rejoin snapshot.
// Deltas with no remaining receivers are retired entirely. Callers hold
// m.mu.
func (m *Model) pruneOutboxFor(s netsim.SiteID) {
	for origin, deltas := range m.outbox {
		live := deltas[:0]
		for _, od := range deltas {
			if _, need := od.remaining[s]; need && m.views[s].Seq(origin) >= od.delta.Seq {
				delete(od.remaining, s)
			}
			if len(od.remaining) > 0 {
				live = append(live, od)
			}
		}
		m.outbox[origin] = live
	}
}

// Tick gossips every site's pending digest delta. Unless ManualRejoin is
// set it first runs the proactive-rejoin pass: any site a previous round
// observed down that is live again fetches its catch-up snapshot NOW,
// before this round's gossip — so by the time the senders fan out, their
// outboxes are already pruned of everything the snapshot covered. The
// round ends by recording which sites are down, which is what the next
// round's recovery detection compares against.
func (m *Model) Tick() error {
	if adm := m.Admission(); adm != nil {
		adm.Tick()
	}
	if !m.manualRejoin {
		if err := m.rejoinRecovered(); err != nil {
			return err
		}
	}
	for _, s := range m.sites {
		if err := m.gossipFrom(s); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.tickCount++
	pullDue := m.efficient && m.tickCount%m.pullEvery == 0
	m.mu.Unlock()
	if pullDue {
		if err := m.antiEntropyPull(); err != nil {
			return err
		}
	}
	m.mu.Lock()
	for _, s := range m.sites {
		if m.net.IsDown(s) {
			m.wasDown[s] = true
			m.roundsDown[s]++
		} else {
			delete(m.roundsDown, s)
		}
	}
	m.mu.Unlock()
	return nil
}

// antiEntropyPull is the periodic leg of the lazy-push/pull hybrid. It is
// ARMED rather than unconditional: only sender→peer pairs the dupemap has
// muted (a push was lost in transit) are exchanged, so a converged or
// merely partitioned federation sends nothing here. Per armed pair the
// exchange is (1) a fingerprint advert answered by a fixed-size
// fingerprint ack — the sender's outbox ledger already names the deltas
// this peer is owed, so the peer only confirms it is alive and diverged —
// and (2) one coalesced envelope carrying precisely those deltas. A leg
// lost in transit keeps the pair armed for the next pull round; delivery
// clears the dupemap entry.
func (m *Model) antiEntropyPull() error {
	m.mu.Lock()
	var pairs []suppKey
	for _, s := range m.sites { // deterministic order, never map order
		for _, p := range m.sites {
			if s != p && m.suppressed[suppKey{s, p}] {
				pairs = append(pairs, suppKey{s, p})
			}
		}
	}
	m.mu.Unlock()
	for _, pair := range pairs {
		m.mu.Lock()
		var need []*outDelta
		for _, od := range m.outbox[pair.from] {
			if _, ok := od.remaining[pair.to]; ok {
				need = append(need, od)
			}
		}
		if len(need) == 0 {
			// A rejoin snapshot or retention pruned the pair's queue out
			// from under the dupemap entry; nothing left to pull.
			delete(m.suppressed, pair)
			m.mu.Unlock()
			continue
		}
		bodySize := m.coalescedSize(need)
		m.mu.Unlock()

		// Leg 1: fingerprint advert out, fingerprint ack back. The ack is
		// fixed-size on purpose: the sender's own outbox ledger (each
		// delta's remaining set) already names exactly which deltas this
		// peer is owed, so the peer only has to confirm it is alive and
		// diverged — shipping its whole per-origin seq vector here would
		// cost more than the lost pushes the pull exists to avoid.
		_, err := m.net.Call(pair.from, pair.to, deltaAdvertWire, arch.AckWire)
		switch {
		case err == nil || errors.Is(err, netsim.ErrMsgLost):
			m.mu.Lock()
			m.gossipBytes += int64(deltaAdvertWire + arch.AckWire)
			m.mu.Unlock()
			if err != nil {
				continue // lost: stay armed for the next pull round
			}
		case arch.IsUnavailable(err):
			continue // down or partitioned: free fail, stay armed
		default:
			return err
		}
		// Leg 2: the targeted coalesced body.
		_, err = m.net.Send(pair.from, pair.to, bodySize)
		switch {
		case err == nil:
			m.mu.Lock()
			m.gossipBytes += int64(bodySize)
			for _, od := range need {
				delete(od.remaining, pair.to)
				m.views[pair.to].Apply(od.delta)
			}
			delete(m.suppressed, pair)
			m.nPullRounds++
			live := m.outbox[pair.from][:0]
			for _, od := range m.outbox[pair.from] {
				if len(od.remaining) > 0 {
					live = append(live, od)
				}
			}
			m.outbox[pair.from] = live
			m.mu.Unlock()
		case errors.Is(err, netsim.ErrMsgLost):
			m.mu.Lock()
			m.gossipBytes += int64(bodySize)
			m.mu.Unlock()
		case arch.IsUnavailable(err):
			// stay armed
		default:
			return err
		}
	}
	return nil
}

// rejoinRecovered triggers the snapshot path for every site that was
// down on a previous Tick and is live now. A rejoin that fails with an
// injected fault (the site is cut off from every donor, say) leaves the
// site's down-marker in place: the next round retries, and ordinary
// anti-entropy keeps working underneath either way. Any other error is a
// model bug and propagates, per the fault contract.
func (m *Model) rejoinRecovered() error {
	m.mu.Lock()
	var recovered []netsim.SiteID
	for _, s := range m.sites { // deterministic site order, not map order
		if m.wasDown[s] && !m.net.IsDown(s) {
			recovered = append(recovered, s)
		}
	}
	m.mu.Unlock()
	for _, s := range recovered {
		switch _, err := m.Rejoin(s); {
		case err == nil:
			m.mu.Lock()
			m.nProactive++
			m.mu.Unlock()
		case !arch.IsUnavailable(err):
			return err
		}
	}
	return nil
}

// GossipStats implements arch.GossipMeter: the dissemination layer's
// byte and suppression accounting, identical in meaning across the
// baseline and efficient modes so experiment columns compare directly.
func (m *Model) GossipStats() arch.GossipStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return arch.GossipStats{
		Bytes:         m.gossipBytes,
		DupSuppressed: m.nDupSuppress,
		PullRounds:    m.nPullRounds,
	}
}

// ProactiveRejoins counts the snapshot transfers Tick triggered on its
// own — the ProactiveRejoin law asserts recovery with this above zero
// and zero operator Rejoin calls.
func (m *Model) ProactiveRejoins() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nProactive
}

// locate resolves id through the querier's own view, falling back to the
// querier's local store (a site's own data is visible before any gossip).
// Callers hold m.mu.
func (m *Model) locate(from netsim.SiteID, id provenance.ID) (netsim.SiteID, bool) {
	if home, ok := m.views[from].Locate(id); ok {
		return home, true
	}
	if _, ok := m.stores[from].Get(id); ok {
		return from, true
	}
	return 0, false
}

// Lookup resolves the record's home from the querying site's own view and
// fetches it directly: one round trip, usually within the zone for local
// data. A record whose digest has not reached this site yet is invisible
// FROM HERE — another site with a fresher view may well resolve it.
func (m *Model) Lookup(from netsim.SiteID, id provenance.ID) (*provenance.Record, time.Duration, error) {
	// Read replica: a previously fetched copy answers locally (records
	// are immutable, so this is always correct).
	if m.replicate {
		m.mu.Lock()
		if rec, ok := m.replicas[from][id]; ok {
			m.replicaHits++
			m.mu.Unlock()
			d, err := m.net.Send(from, from, arch.ReqOverhead+arch.IDWire)
			return rec, d, err
		}
		m.mu.Unlock()
	}
	m.mu.Lock()
	home, known := m.locate(from, id)
	if !known {
		m.mu.Unlock()
		return nil, 0, fmt.Errorf("passnet: %s not visible from site %d (digest pending)", id.Short(), from)
	}
	rec, ok := m.stores[home].Get(id)
	m.mu.Unlock()
	respSize := arch.RespOverhead
	if ok {
		respSize += len(rec.Encode())
	}
	d, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
		return m.net.Call(from, home, arch.ReqOverhead+arch.IDWire, respSize)
	})
	if err != nil {
		return nil, d, err
	}
	if !ok {
		return nil, d, fmt.Errorf("passnet: view points at %d but %s is gone", home, id.Short())
	}
	if m.replicate && home != from {
		m.mu.Lock()
		m.replicas[from][id] = rec
		m.mu.Unlock()
	}
	return rec, d, nil
}

// ReplicaHits reports lookups served from read replicas.
func (m *Model) ReplicaHits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replicaHits
}

// ReplicaCount reports the number of replicas cached at a site.
func (m *Model) ReplicaCount(s netsim.SiteID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.replicas[s])
}

// QueryAttr contacts only the sites whose delivered Bloom filters may
// hold (key, value) — View.CandidatesFor probes each known origin's
// filter, so the wire-level digest, false positives included, is the
// routing authority — plus the querier's own store (always fresh). A
// false positive (the filter matches, no delivered delta listed the key)
// costs a real, charged, empty round trip; FalsePositives counts them.
// Unreachable candidate sites are skipped after retransmission; the
// answer degrades to what the reachable sites hold. Under a partition the
// same query asked from opposite sides returns different results, because
// the two sides' views list different candidates: split-brain, made
// observable.
func (m *Model) QueryAttr(from netsim.SiteID, key string, value provenance.Value) ([]provenance.ID, time.Duration, error) {
	mk := key + "\x00" + string(value.Canonical())
	m.mu.Lock()
	view := m.views[from]
	listed := view.CandidatesFor(mk)
	exact := view.SitesFor(mk) // sorted; the FP-classification reference
	candidates := make([]netsim.SiteID, 0, len(listed)+1)
	ownListed := false
	for _, s := range listed {
		candidates = append(candidates, s)
		if s == from {
			ownListed = true
		}
	}
	if !ownListed {
		candidates = append(candidates, from) // own store is free to consult
	}
	m.mu.Unlock()
	// Deterministic contact order (under loss the draw order must be
	// reproducible); SitesFor is sorted, but the appended own site may
	// break the order.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

	var slowest time.Duration
	var out []provenance.ID
	seen := make(map[provenance.ID]struct{})
	contacted, fps := 0, 0
	for _, s := range candidates {
		m.mu.Lock()
		ids := append([]provenance.ID(nil), m.stores[s].LookupAttr(key, value)...)
		m.mu.Unlock()
		var d time.Duration
		var err error
		if s == from {
			d, err = m.net.Send(from, from, arch.AttrReqSize(key, value))
		} else {
			d, err = arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
				return m.net.Call(from, s, arch.AttrReqSize(key, value), arch.IDListRespSize(len(ids)))
			})
			contacted++
		}
		if err != nil {
			if arch.IsUnavailable(err) {
				continue
			}
			return nil, slowest, err
		}
		if s != from && len(ids) == 0 && !containsSite(exact, s) {
			fps++ // Bloom misroute: a charged round trip for nothing
		}
		slowest = arch.MaxDuration(slowest, d)
		for _, id := range ids {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	m.mu.Lock()
	m.lastContacted = contacted
	m.remoteContacts += int64(contacted)
	m.fpContacts += int64(fps)
	m.mu.Unlock()
	return out, slowest, nil
}

// containsSite reports whether the ascending-sorted slice holds s.
func containsSite(sorted []netsim.SiteID, s netsim.SiteID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= s })
	return i < len(sorted) && sorted[i] == s
}

// RemoteContacts reports every remote candidate round trip QueryAttr has
// attempted so far; FalsePositives reports the subset that were Bloom
// misroutes (filter matched, no delivered delta carried the key, empty
// answer). Their ratio is E15's fp-rate column.
func (m *Model) RemoteContacts() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.remoteContacts
}

// FalsePositives reports QueryAttr round trips wasted on Bloom-filter
// false positives.
func (m *Model) FalsePositives() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fpContacts
}

// QueryAncestors chases lineage across sites with server-side traversal:
// each contacted site resolves everything it holds locally in one round
// trip and returns the cross-site border pointers, which the querier's
// view routes directly (no probing, no per-record lookups). Border
// pointers into records whose digests have not reached this site are
// unresolvable from here — a partitioned querier sees its side's sub-DAG
// only.
func (m *Model) QueryAncestors(from netsim.SiteID, id provenance.ID) ([]provenance.ID, time.Duration, error) {
	var total time.Duration
	found := make(map[provenance.ID]struct{})
	var out []provenance.ID
	// frontier groups unresolved IDs by their home site.
	frontier := map[netsim.SiteID][]provenance.ID{}
	m.mu.Lock()
	home, known := m.locate(from, id)
	m.mu.Unlock()
	if !known {
		return nil, 0, fmt.Errorf("passnet: %s not visible from site %d", id.Short(), from)
	}
	frontier[home] = []provenance.ID{id}

	guard := 0
	for len(frontier) > 0 {
		guard++
		if guard > 4096 {
			return out, total, fmt.Errorf("passnet: ancestry traversal did not converge")
		}
		next := map[netsim.SiteID][]provenance.ID{}
		// Deterministic site order for the round's fan-out.
		order := make([]netsim.SiteID, 0, len(frontier))
		for site := range frontier {
			order = append(order, site)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, site := range order {
			site, ids := site, frontier[site]
			m.mu.Lock()
			local, unresolved := m.stores[site].LocalAncestors(ids)
			m.mu.Unlock()
			d, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
				return m.net.Call(from, site, arch.ReqOverhead+len(ids)*arch.IDWire,
					arch.IDListRespSize(len(local)+len(unresolved)))
			})
			total += d
			if err != nil {
				if arch.IsUnavailable(err) {
					// Site unreachable: its sub-DAG is missing from this
					// best-effort answer.
					continue
				}
				return nil, total, err
			}
			for _, a := range ids {
				// IDs handed to a site that are not the query root are
				// themselves ancestors (they were border pointers).
				if a == id {
					continue
				}
				if _, seen := found[a]; !seen {
					found[a] = struct{}{}
					out = append(out, a)
				}
			}
			for _, a := range local {
				if _, seen := found[a]; !seen {
					found[a] = struct{}{}
					out = append(out, a)
				}
			}
			for _, u := range unresolved {
				if _, seen := found[u]; seen {
					continue
				}
				m.mu.Lock()
				h, ok := m.locate(from, u)
				m.mu.Unlock()
				if !ok {
					continue // edge into a record this site's view cannot place
				}
				next[h] = append(next[h], u)
			}
		}
		frontier = next
	}
	return out, total, nil
}

// LastContacted reports remote sites contacted by the most recent
// QueryAttr (digest routing effectiveness; contrast with feddb's n-1).
func (m *Model) LastContacted() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastContacted
}

// PendingDigests reports publications not yet globally visible: never
// cut into a delta, or cut but still awaiting delivery to some peer.
func (m *Model) PendingDigests() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ps := range m.pending {
		n += len(ps)
	}
	for _, deltas := range m.outbox {
		for _, d := range deltas {
			n += len(d.pubs)
		}
	}
	return n
}

// SiteRecords reports a site's record count (locality tests).
func (m *Model) SiteRecords(s netsim.SiteID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.stores[s]; ok {
		return st.Len()
	}
	return 0
}
