// Package dht implements Section IV-C's distributed-and-unstable model: a
// Chord-style distributed hash table with consistent hashing and
// finger-table routing. Records are stored at the successor of their
// hashed ID; every queriable attribute posting is stored at the successor
// of the hashed (key, value) pair.
//
// The paper's four objections, made measurable:
//
//  1. "storing data objects by hashing a key inherently assumes that the
//     location of these objects is unimportant" — record homes are random
//     sites, so a consumer next door to the producer still pays WAN round
//     trips (E6, the Pier observation);
//  2. "periodic updates of distinct queriable attributes to DHTs scale to
//     only tens of thousands of updaters" — RepublishAll models the
//     periodic re-publication soft-state DHTs require; per-node load
//     grows with updaters × attributes (E9);
//  3. routing costs O(log n) hops per lookup, each a real message;
//  4. "support for efficient recursive queries is so far nonexistent" —
//     ancestry resolution is one full DHT lookup per visited record.
//
// # Churn recovery
//
// The ring survives membership change the way Chord does (E16, the
// KeyRehoming law). Each placement is replicated to the home's first
// ReplicaFanout ring successors (successor-list replication, charged on
// the wire, surviving runs of up to ReplicaFanout adjacent crashes), and a
// periodic Stabilize round — implementing arch.Stabilizer — probes each
// member's successor list, removes crashed members from the ring, promotes
// the replicas their successors already hold into primary ownership, and
// re-establishes the replication invariant along the repaired successor
// links. All repair traffic is charged in bytes and messages: churn
// tolerance has a measurable price, which is exactly the paper's point
// about DHT maintenance load.
//
// # Elastic membership
//
// Arrivals are the other half of "sites come and go" (E17, the
// JoinHandoff law). Join — implementing arch.Joiner — splices a cold
// node into the ring: the joiner contacts any live member, the contact
// routes to the joiner's ring position (charged finger hops), and the
// successor owning that arc hands over every record whose placement the
// new node now owns, plus the replica buckets whose source chains now
// run through it — one batched, charged transfer. The next Stabilize
// round re-establishes the replication invariant around the new member;
// the next Tick's republish refreshes every placement against the grown
// ring. HandedOff() exposes the transfer count the way Rehomed() exposes
// promotions.
//
// Departures have a voluntary counterpart too: Leave — implementing
// arch.Leaver — hands the leaver's arc to its ring successor BEFORE the
// exit, shipping only the records the successor's replica bucket is
// missing (a diff, not a snapshot), so a planned departure is strictly
// cheaper than crash-then-stabilize. The LeaveHandoff law pins that
// comparison; Left(), LeaveHandedOff(), and LeaveBytes() expose the
// observables.
package dht

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pass/internal/arch"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// SuccessorListLen is how many ring successors each node tracks (the
// Chord successor list). One stabilize round can detect and route around
// runs of up to SuccessorListLen dead members; longer runs are repaired
// over successive rounds.
const SuccessorListLen = 4

// ReplicaFanout is how many ring successors hold a replica of each
// placement. Two replicas survive a pair of adjacent crashes — the
// common case a 10% churn rate produces — at the price of two extra
// (charged) messages per placement; runs of more than ReplicaFanout
// adjacent crashes fall back to the next republish round.
const ReplicaFanout = 2

// Model is the Chord-style DHT.
type Model struct {
	arch.AdmissionSlot
	mu  sync.Mutex
	net arch.Network
	// ring is the current membership snapshot. Stabilize replaces it
	// wholesale (never mutates nodes in place), so an operation that
	// grabbed the pointer keeps a consistent view for its whole run.
	ring *ring
	// published remembers everything for republish rounds.
	published []arch.Pub
	// hopsTotal / lookups track routing cost.
	hopsTotal int64
	lookups   int64
	// rehomed counts records promoted from replica to primary by
	// stabilization (the E16 re-homing column).
	rehomed int64
	// handedOff counts records transferred to joining nodes (the E17
	// handoff column); handoffBytes is their wire cost.
	handedOff    int64
	handoffBytes int64
	// left counts voluntary departures (arch.Leaver); leaveHandedOff and
	// leaveBytes are what those departures moved and what the moving cost
	// — the E17 leave columns and the LeaveHandoff law's observables.
	left           int64
	leaveHandedOff int64
	leaveBytes     int64
	rto            *arch.RTO
}

// ring is one immutable membership snapshot: nodes sorted by ring
// position, with each node's primary store and the replicas it holds for
// its nearest predecessors (successor-list replication). Replicas are
// bucketed by the SOURCE node's ring position, so when a member dies its
// successor promotes exactly the dead node's records — never a still-live
// neighbour's copies.
type ring struct {
	nodes    []node
	stores   []*arch.SiteStore
	replicas []map[uint64]*arch.SiteStore
}

type node struct {
	site netsim.SiteID
	pos  uint64 // ring position
}

// New builds a DHT whose participants are the given sites.
func New(net arch.Network, sites []netsim.SiteID) *Model {
	m := &Model{net: net, rto: arch.NewRTO(0xD47A91)}
	r := &ring{}
	for _, s := range sites {
		r.nodes = append(r.nodes, node{site: s, pos: ringPosOfSite(s)})
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].pos < r.nodes[j].pos })
	r.stores = make([]*arch.SiteStore, len(r.nodes))
	r.replicas = make([]map[uint64]*arch.SiteStore, len(r.nodes))
	for i := range r.stores {
		r.stores[i] = arch.NewSiteStore()
		r.replicas[i] = make(map[uint64]*arch.SiteStore)
	}
	m.ring = r
	return m
}

// Name implements arch.Model.
func (m *Model) Name() string { return "dht" }

// snapshot returns the current membership ring.
func (m *Model) snapshot() *ring {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring
}

func ringPosOfSite(s netsim.SiteID) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(s)+0x5851F42D4C957F2D)
	h := sha256.Sum256(buf[:])
	return binary.LittleEndian.Uint64(h[:8])
}

func ringPos(b []byte) uint64 {
	h := sha256.Sum256(b)
	return binary.LittleEndian.Uint64(h[:8])
}

// successorIdx returns the index of the first node clockwise from pos.
func (r *ring) successorIdx(pos uint64) int {
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].pos >= pos })
	if i == len(r.nodes) {
		return 0
	}
	return i
}

// route simulates Chord finger-table routing from one site toward the
// home of pos: each hop halves the remaining clockwise distance, charging
// one network message per hop. It returns the home node index (within r),
// the accumulated latency, and the hop count.
func (m *Model) route(r *ring, from netsim.SiteID, pos uint64, msgSize int) (int, time.Duration, int, error) {
	// A crashed originator cannot route at all; fail fast instead of
	// misreading its own ErrSiteDown as dead finger targets and scanning
	// the whole ring.
	if m.net.IsDown(from) {
		return 0, 0, 0, fmt.Errorf("%w: routing origin %d", netsim.ErrSiteDown, from)
	}
	homeIdx := r.successorIdx(pos)
	// Current position on the ring = the node owning the querier's hash;
	// route by jumping fingers: each finger jump moves to the successor
	// of cur + 2^k for the largest useful k — equivalent to halving the
	// clockwise gap. We simulate the standard O(log n) path.
	curIdx := r.successorIdx(ringPosOfSite(from))
	var total time.Duration
	hops := 0
	curSite := from
	for curIdx != homeIdx {
		gap := r.nodes[homeIdx].pos - r.nodes[curIdx].pos // modular arithmetic via uint64 wraparound
		// Largest power-of-two jump not exceeding the gap.
		jump := uint64(1) << 63
		for jump > gap && jump > 1 {
			jump >>= 1
		}
		nextIdx := r.successorIdx(r.nodes[curIdx].pos + jump)
		if nextIdx == curIdx {
			nextIdx = (curIdx + 1) % len(r.nodes) // guarantee progress
		}
		// A dead or partitioned finger target costs nothing on the wire;
		// Chord falls back to successively closer successors until it
		// reaches a live node — or the home itself, whose unreachability
		// fails the route (the data holder is gone, until a Stabilize
		// round re-homes its keys). Lost messages are NOT routed around:
		// the sender only discovers the loss by timeout, and the caller
		// retransmits the whole operation.
		d, err := m.net.Send(curSite, r.nodes[nextIdx].site, msgSize)
		for err != nil && (errors.Is(err, netsim.ErrSiteDown) || errors.Is(err, netsim.ErrPartitioned)) && nextIdx != homeIdx {
			nextIdx = (nextIdx + 1) % len(r.nodes)
			d, err = m.net.Send(curSite, r.nodes[nextIdx].site, msgSize)
		}
		if err != nil {
			return 0, total, hops, err
		}
		total += d
		hops++
		curSite = r.nodes[nextIdx].site
		curIdx = nextIdx
		if hops > len(r.nodes)+64 {
			return 0, total, hops, fmt.Errorf("dht: routing did not converge")
		}
	}
	m.mu.Lock()
	m.hopsTotal += int64(hops)
	m.lookups++
	m.mu.Unlock()
	return homeIdx, total, hops, nil
}

// replicate pushes a freshly placed record from its home to the home's
// first ReplicaFanout ring successors (successor-list replication). One
// attempt each, fire-and-forget — a replica lost to the network is
// repaired by the next Stabilize round's anti-entropy pass — so the
// bytes are charged but the publish's critical-path latency is not
// extended.
func (m *Model) replicate(r *ring, homeIdx int, id provenance.ID, rec *provenance.Record) {
	for k := 1; k <= ReplicaFanout; k++ {
		succ := (homeIdx + k) % len(r.nodes)
		if succ == homeIdx {
			return // ring smaller than the fanout
		}
		if _, err := m.net.Send(r.nodes[homeIdx].site, r.nodes[succ].site, arch.ReqOverhead+len(rec.Encode())); err != nil {
			continue
		}
		m.mu.Lock()
		r.replicaBucket(succ, r.nodes[homeIdx].pos).Add(id, rec)
		m.mu.Unlock()
	}
}

// replicaBucket returns (creating if needed) the store where node idx
// keeps replicas pushed by the source node at the given ring position.
// Callers hold m.mu.
func (r *ring) replicaBucket(idx int, sourcePos uint64) *arch.SiteStore {
	b := r.replicas[idx][sourcePos]
	if b == nil {
		b = arch.NewSiteStore()
		r.replicas[idx][sourcePos] = b
	}
	return b
}

// Publish routes the record to successor(hash(id)) and one posting per
// attribute to successor(hash(key,value)); the "distinct queriable
// attributes" cost of Section IV-C. Each placement retransmits
// independently on lost messages (a publish touching five homes does not
// restart from scratch because one acknowledgement dropped), so loss
// costs bandwidth and latency before it costs recall; a placement whose
// retransmissions all fail leaves the publish partially indexed and
// returns an error — re-offering the same Pub completes it
// (idempotence).
func (m *Model) Publish(p arch.Pub) (time.Duration, error) {
	var wait time.Duration
	if adm := m.Admission(); adm != nil {
		// Admission at the record's home node: charge the estimated
		// direct exchange (placement + ack) as the service cost; shed
		// publishes never touch the network.
		r := m.snapshot()
		if len(r.nodes) > 0 {
			home := r.nodes[r.successorIdx(ringPos(p.ID[:]))].site
			est, _ := m.net.Latency(p.Origin, home, p.WireSize())
			ack, _ := m.net.Latency(home, p.Origin, arch.AckWire)
			w, err := adm.Offer(int64(p.Origin), est+ack)
			if err != nil {
				return 0, err
			}
			wait = w
		}
	}
	d, err := m.publishOnce(p)
	d += wait
	if err != nil {
		return d, err
	}
	m.mu.Lock()
	m.published = append(m.published, p)
	m.mu.Unlock()
	return d, nil
}

func (m *Model) publishOnce(p arch.Pub) (time.Duration, error) {
	r := m.snapshot()
	total, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
		homeIdx, d1, _, err := m.route(r, p.Origin, ringPos(p.ID[:]), p.WireSize())
		if err != nil {
			return d1, err
		}
		m.mu.Lock()
		r.stores[homeIdx].Add(p.ID, p.Rec)
		m.mu.Unlock()
		m.replicate(r, homeIdx, p.ID, p.Rec)
		// Ack straight back; a lost ack retransmits the placement.
		dAck, err := m.net.Send(r.nodes[homeIdx].site, p.Origin, arch.AckWire)
		return d1 + dAck, err
	})
	if err != nil {
		return total, err
	}
	// Attribute postings, routed independently (parallel; max latency).
	var attrMax time.Duration
	seen := make(map[string]struct{})
	for _, a := range arch.QueriableAttrs(p.Rec) {
		mk := a.Key + "\x00" + string(a.Value.Canonical())
		if _, dup := seen[mk]; dup {
			continue
		}
		seen[mk] = struct{}{}
		d, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
			idx, d, _, err := m.route(r, p.Origin, ringPos([]byte(mk)), arch.ReqOverhead+len(mk)+arch.IDWire)
			if err != nil {
				return d, err
			}
			m.mu.Lock()
			r.stores[idx].Add(p.ID, p.Rec)
			m.mu.Unlock()
			m.replicate(r, idx, p.ID, p.Rec)
			return d, nil
		})
		if err != nil {
			return total + attrMax, err
		}
		attrMax = arch.MaxDuration(attrMax, d)
	}
	return total + attrMax, nil
}

// Lookup routes to the record's home and returns it; lost messages
// retransmit the whole lookup.
func (m *Model) Lookup(from netsim.SiteID, id provenance.ID) (*provenance.Record, time.Duration, error) {
	var rec *provenance.Record
	var ok bool
	d, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
		r := m.snapshot()
		homeIdx, d1, _, err := m.route(r, from, ringPos(id[:]), arch.ReqOverhead+arch.IDWire)
		if err != nil {
			return d1, err
		}
		m.mu.Lock()
		rec, ok = r.stores[homeIdx].Get(id)
		m.mu.Unlock()
		respSize := arch.RespOverhead
		if ok {
			respSize += len(rec.Encode())
		}
		d2, err := m.net.Send(r.nodes[homeIdx].site, from, respSize)
		return d1 + d2, err
	})
	if err != nil {
		return nil, d, err
	}
	if !ok {
		return nil, d, fmt.Errorf("dht: %s not found", id.Short())
	}
	return rec, d, nil
}

// QueryAttr routes to the attribute's home node; lost messages
// retransmit the whole query.
func (m *Model) QueryAttr(from netsim.SiteID, key string, value provenance.Value) ([]provenance.ID, time.Duration, error) {
	mk := key + "\x00" + string(value.Canonical())
	var ids []provenance.ID
	d, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
		r := m.snapshot()
		homeIdx, d1, _, err := m.route(r, from, ringPos([]byte(mk)), arch.AttrReqSize(key, value))
		if err != nil {
			return d1, err
		}
		m.mu.Lock()
		ids = append([]provenance.ID(nil), r.stores[homeIdx].LookupAttr(key, value)...)
		m.mu.Unlock()
		d2, err := m.net.Send(r.nodes[homeIdx].site, from, arch.IDListRespSize(len(ids)))
		return d1 + d2, err
	})
	if err != nil {
		return nil, d, err
	}
	return ids, d, nil
}

// QueryAncestors performs one full DHT lookup per visited record: "support
// for efficient recursive queries is so far nonexistent."
func (m *Model) QueryAncestors(from netsim.SiteID, id provenance.ID) ([]provenance.ID, time.Duration, error) {
	var total time.Duration
	visited := make(map[provenance.ID]struct{})
	var out []provenance.ID
	frontier := []provenance.ID{id}
	for len(frontier) > 0 {
		var next []provenance.ID
		for _, cur := range frontier {
			rec, d, err := m.Lookup(from, cur)
			total += d
			if err != nil {
				if cur == id {
					return nil, total, err
				}
				continue
			}
			for _, parent := range rec.Parents {
				if _, seen := visited[parent]; seen {
					continue
				}
				visited[parent] = struct{}{}
				out = append(out, parent)
				next = append(next, parent)
			}
		}
		frontier = next
	}
	return out, total, nil
}

// Stabilize implements arch.Stabilizer: one Chord stabilization round.
//
//  1. Probe: every live member pings down its successor list (each probe a
//     charged message) until it reaches a live successor; members whose
//     probes fail with ErrSiteDown are marked departed. Lost or
//     partitioned probes are inconclusive — a slow or cut-off peer is not
//     a crashed one — so membership is left alone for those.
//  2. Repair: departed members are removed from the ring (successors and
//     fingers now resolve past them), and each departed member's first
//     live successor promotes the replicas it already holds into primary
//     ownership — the keys the dead node owned are re-homed without
//     waiting for their origins to republish.
//  3. Re-replicate: along the successor links, every member re-sends its
//     successors the primary records their replica buckets are missing,
//     one batched transfer per link, charged in bytes — restoring the
//     replication invariant after a removal and, because the pass runs
//     every round, repairing replicas that packet loss dropped at
//     publish time.
//
// A run of more than SuccessorListLen adjacent crashes loses the replica
// chain for the run's interior; those keys come back on the next Tick's
// origin republish, which is the DHT's soft-state backstop.
func (m *Model) Stabilize() (time.Duration, error) {
	r := m.snapshot()
	n := len(r.nodes)
	if n < 2 {
		return 0, nil
	}
	var total time.Duration
	dead := make(map[int]bool)
	for i := 0; i < n; i++ {
		if m.net.IsDown(r.nodes[i].site) {
			continue // a crashed member probes nothing
		}
		for k := 1; k <= SuccessorListLen && k < n; k++ {
			j := (i + k) % n
			d, err := m.net.Send(r.nodes[i].site, r.nodes[j].site, arch.AckWire)
			total += d
			if err == nil {
				break
			}
			if errors.Is(err, netsim.ErrSiteDown) {
				dead[j] = true
				continue
			}
			break // lost or partitioned: inconclusive, no removal
		}
	}
	if len(dead) > 0 && len(dead) < n {
		m.mu.Lock()
		// Promote: each departed member's first live successor takes over
		// exactly that member's replica bucket — records a still-live
		// neighbour replicated here stay replicas. Promotion is local
		// (the bucket is already on the successor), so no wire traffic.
		deadPos := make(map[uint64]bool, len(dead))
		for i := 0; i < n; i++ {
			if !dead[i] {
				continue
			}
			deadPos[r.nodes[i].pos] = true
			for k := 1; k < n; k++ {
				j := (i + k) % n
				if dead[j] {
					continue
				}
				if bucket := r.replicas[j][r.nodes[i].pos]; bucket != nil {
					m.rehomed += mergeStores(r.stores[j], bucket)
				}
				break
			}
		}
		nr := &ring{}
		for i := 0; i < n; i++ {
			if dead[i] {
				continue
			}
			// Buckets sourced from departed members are spent: their
			// contents are primary at the promoting successor now.
			for pos := range r.replicas[i] {
				if deadPos[pos] {
					delete(r.replicas[i], pos)
				}
			}
			nr.nodes = append(nr.nodes, r.nodes[i])
			nr.stores = append(nr.stores, r.stores[i])
			nr.replicas = append(nr.replicas, r.replicas[i])
		}
		m.ring = nr
		r = nr
		m.mu.Unlock()
	}

	// Re-replicate along the (possibly repaired) successor links. This
	// anti-entropy pass runs every round, not only after a removal: it is
	// what heals replicas dropped by packet loss at publish time, per
	// replicate's contract, and it is free when nothing is missing.
	nn := len(r.nodes)
	for i := 0; i < nn; i++ {
		for k := 1; k <= ReplicaFanout; k++ {
			j := (i + k) % nn
			if i == j || m.net.IsDown(r.nodes[i].site) || m.net.IsDown(r.nodes[j].site) {
				continue
			}
			m.mu.Lock()
			ids, recs, bytes := missingFrom(r.stores[i], r.replicaBucket(j, r.nodes[i].pos))
			m.mu.Unlock()
			if len(ids) == 0 {
				continue
			}
			d, err := m.net.Send(r.nodes[i].site, r.nodes[j].site, arch.ReqOverhead+bytes)
			total += d
			if err != nil {
				continue // retried by a later round
			}
			m.mu.Lock()
			bucket := r.replicaBucket(j, r.nodes[i].pos)
			for x, id := range ids {
				bucket.Add(id, recs[x])
			}
			m.mu.Unlock()
		}
	}
	return total, nil
}

// Join implements arch.Joiner: splice a cold node into the live ring.
//
//  1. Contact: the joiner announces itself to any live member (via) —
//     one charged round trip, retransmitted on loss.
//  2. Locate: the contact routes to the joiner's ring position with
//     ordinary finger hops (charged), landing on the successor that
//     owns the joiner's arc today.
//  3. Handoff: the successor transfers, in one batched charged message,
//     every record with a placement the new node now owns — placed by
//     hash(id) or by any queriable attribute hashing into the new arc —
//     plus copies of the replica buckets whose source nodes now count
//     the joiner among their first ReplicaFanout successors. The
//     successor keeps its own copies; like any stale placement they age
//     into soft state, refreshed by the next republish round.
//  4. Splice: the membership snapshot is replaced with one including the
//     new node, so the very next lookup routes to it. The next Stabilize
//     round's anti-entropy pass re-establishes the replication invariant
//     around the new member.
//
// A join whose contact, routing, or handoff transfer fails returns an
// unavailable error and changes no membership; re-offering the same Join
// later completes it.
func (m *Model) Join(newSite, via netsim.SiteID) (time.Duration, error) {
	if m.net.IsDown(newSite) {
		return 0, fmt.Errorf("%w: joining node %d", netsim.ErrSiteDown, newSite)
	}
	r := m.snapshot()
	for _, n := range r.nodes {
		if n.site == newSite {
			return 0, fmt.Errorf("dht: site %d is already a ring member", newSite)
		}
	}
	total, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
		return m.net.Call(newSite, via, arch.ReqOverhead, arch.AckWire)
	})
	if err != nil {
		return total, err
	}
	newPos := ringPosOfSite(newSite)
	succIdx, dRoute, _, err := m.route(r, via, newPos, arch.ReqOverhead)
	total += dRoute
	if err != nil {
		return total, err
	}
	succSite := r.nodes[succIdx].site

	// Build the grown snapshot; it is published only after the handoff
	// lands, so a failed join leaves the old ring untouched.
	ins := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].pos >= newPos })
	nr := &ring{
		nodes:    make([]node, 0, len(r.nodes)+1),
		stores:   make([]*arch.SiteStore, 0, len(r.nodes)+1),
		replicas: make([]map[uint64]*arch.SiteStore, 0, len(r.nodes)+1),
	}
	for i := 0; i <= len(r.nodes); i++ {
		if i == ins {
			nr.nodes = append(nr.nodes, node{site: newSite, pos: newPos})
			nr.stores = append(nr.stores, arch.NewSiteStore())
			nr.replicas = append(nr.replicas, make(map[uint64]*arch.SiteStore))
		}
		if i < len(r.nodes) {
			nr.nodes = append(nr.nodes, r.nodes[i])
			nr.stores = append(nr.stores, r.stores[i])
			nr.replicas = append(nr.replicas, r.replicas[i])
		}
	}
	newIdx := ins
	succNewIdx := (newIdx + 1) % len(nr.nodes)

	// Collect the handoff: primary records whose placement moved, then the
	// replica buckets the joiner's new chain position entitles it to
	// (sources iterated in sorted order so the byte accounting is
	// deterministic run to run).
	m.mu.Lock()
	var ids []provenance.ID
	var recs []*provenance.Record
	bytes := 0
	src := nr.stores[succNewIdx]
	for _, id := range src.IDs() {
		rec, ok := src.Get(id)
		if !ok || !placementMoved(nr, newIdx, id, rec) {
			continue
		}
		ids = append(ids, id)
		recs = append(recs, rec)
		bytes += len(rec.Encode())
	}
	var bucketSrcs []uint64
	for srcPos := range nr.replicas[succNewIdx] {
		if replicatesTo(nr, srcPos, newIdx) {
			bucketSrcs = append(bucketSrcs, srcPos)
		}
	}
	sort.Slice(bucketSrcs, func(i, j int) bool { return bucketSrcs[i] < bucketSrcs[j] })
	for _, srcPos := range bucketSrcs {
		b := nr.replicas[succNewIdx][srcPos]
		for _, id := range b.IDs() {
			if rec, ok := b.Get(id); ok {
				bytes += len(rec.Encode())
			}
		}
	}
	m.mu.Unlock()

	dXfer, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
		return m.net.Send(succSite, newSite, arch.ReqOverhead+bytes)
	})
	total += dXfer
	if err != nil {
		return total, err
	}

	// Commit: fold the handoff into the joiner's stores and publish the
	// grown ring.
	m.mu.Lock()
	for i, id := range ids {
		nr.stores[newIdx].Add(id, recs[i])
		m.handedOff++
	}
	for _, srcPos := range bucketSrcs {
		m.handedOff += mergeStores(nr.replicaBucket(newIdx, srcPos), nr.replicas[succNewIdx][srcPos])
	}
	m.handoffBytes += int64(bytes)
	m.ring = nr
	m.mu.Unlock()

	// Ack the joiner's admission back to its contact.
	dAck, err := m.net.Send(newSite, via, arch.AckWire)
	total += dAck
	if err != nil && !arch.IsUnavailable(err) {
		return total, err
	}
	return total, nil
}

// Leave implements arch.Leaver: a voluntary, coordinated departure — the
// planned counterpart of a crash. Where a crashed node's keys come back
// only after Stabilize detects the death, promotes replicas, and
// re-replicates along the repaired links (all charged), a leaver hands
// its arc over BEFORE it exits:
//
//  1. Announce: the leaver tells its immediate ring successor it is
//     departing — one charged round trip, retransmitted on loss. The
//     successor must be live and reachable; a leave without it fails
//     unavailable, changes no membership, and can be retried.
//  2. Transfer: the leaver ships, in one batched charged message, only
//     the primary records the successor is actually missing. The
//     successor already holds most of the arc in the replica bucket the
//     leaver pushed to it at publish time, so the transfer is a diff,
//     not a snapshot — the reason a leave is strictly cheaper than
//     crash-then-stabilize (the LeaveHandoff law's comparison).
//  3. Commit: the successor promotes the leaver's replica bucket into
//     primary ownership (local, free), folds in the shipped diff, and
//     the shrunken ring is published — the very next lookup routes the
//     departed arc to the successor. Replica buckets the leaver held
//     for its predecessors vanish with it; the next Stabilize round's
//     re-replication pass rebuilds the invariant at the new chain
//     positions.
//
// The departed site remains a live netsim client — it can still publish
// and query through the ring — it just owns no arc. Leaving again, or
// leaving a site that never joined, is an explicit error.
func (m *Model) Leave(s netsim.SiteID) (time.Duration, error) {
	if m.net.IsDown(s) {
		return 0, fmt.Errorf("%w: leaving node %d", netsim.ErrSiteDown, s)
	}
	r := m.snapshot()
	idx := -1
	for i, n := range r.nodes {
		if n.site == s {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("dht: site %d is not a ring member", s)
	}
	if len(r.nodes) < 2 {
		return 0, fmt.Errorf("dht: last member %d cannot leave", s)
	}
	succIdx := (idx + 1) % len(r.nodes)
	succSite := r.nodes[succIdx].site
	if m.net.IsDown(succSite) || m.net.Partitioned(s, succSite) {
		return 0, fmt.Errorf("%w: successor %d unreachable for leaving node %d", netsim.ErrSiteDown, succSite, s)
	}

	total, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
		return m.net.Call(s, succSite, arch.ReqOverhead, arch.AckWire)
	})
	if err != nil {
		return total, err
	}

	// The diff: primaries the successor holds neither as primary nor in
	// the replica bucket this leaver filled at publish time.
	m.mu.Lock()
	bucket := r.replicaBucket(succIdx, r.nodes[idx].pos)
	var ids []provenance.ID
	var recs []*provenance.Record
	bytes := 0
	for _, id := range r.stores[idx].IDs() {
		if _, have := bucket.Get(id); have {
			continue
		}
		if _, have := r.stores[succIdx].Get(id); have {
			continue
		}
		rec, ok := r.stores[idx].Get(id)
		if !ok {
			continue
		}
		ids = append(ids, id)
		recs = append(recs, rec)
		bytes += len(rec.Encode())
	}
	m.mu.Unlock()

	dXfer, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
		return m.net.Send(s, succSite, arch.ReqOverhead+bytes)
	})
	total += dXfer
	if err != nil {
		return total, err
	}

	// Commit: promote, fold the diff, publish the shrunken ring. A failed
	// leave never reaches here, so membership is untouched on any error
	// path above.
	m.mu.Lock()
	nr := &ring{
		nodes:    make([]node, 0, len(r.nodes)-1),
		stores:   make([]*arch.SiteStore, 0, len(r.nodes)-1),
		replicas: make([]map[uint64]*arch.SiteStore, 0, len(r.nodes)-1),
	}
	for i := range r.nodes {
		if i == idx {
			continue
		}
		// Buckets sourced at the leaver are spent: their contents become
		// primary at the successor now.
		delete(r.replicas[i], r.nodes[idx].pos)
		nr.nodes = append(nr.nodes, r.nodes[i])
		nr.stores = append(nr.stores, r.stores[i])
		nr.replicas = append(nr.replicas, r.replicas[i])
	}
	succNew := succIdx
	if succIdx > idx {
		succNew--
	}
	moved := mergeStores(nr.stores[succNew], bucket)
	for i, id := range ids {
		if _, have := nr.stores[succNew].Get(id); !have {
			moved++
		}
		nr.stores[succNew].Add(id, recs[i])
	}
	m.left++
	m.leaveHandedOff += moved
	m.leaveBytes += int64(bytes)
	m.ring = nr
	m.mu.Unlock()
	return total, nil
}

// placementMoved reports whether any of the record's placements — the
// hashed id or any hashed queriable attribute — lands on the new node
// under the grown ring. Callers hold m.mu.
func placementMoved(nr *ring, newIdx int, id provenance.ID, rec *provenance.Record) bool {
	if nr.successorIdx(ringPos(id[:])) == newIdx {
		return true
	}
	for _, a := range arch.QueriableAttrs(rec) {
		mk := a.Key + "\x00" + string(a.Value.Canonical())
		if nr.successorIdx(ringPos([]byte(mk))) == newIdx {
			return true
		}
	}
	return false
}

// replicatesTo reports whether the node at newIdx sits in the first
// ReplicaFanout ring successors of the member at sourcePos — i.e. whether
// that member's placements now replicate onto the joiner.
func replicatesTo(nr *ring, sourcePos uint64, newIdx int) bool {
	si := -1
	for i, n := range nr.nodes {
		if n.pos == sourcePos {
			si = i
			break
		}
	}
	if si < 0 {
		return false // source departed; its bucket is spent
	}
	for k := 1; k <= ReplicaFanout; k++ {
		if (si+k)%len(nr.nodes) == newIdx {
			return true
		}
	}
	return false
}

// mergeStores folds every record of src into dst, returning how many were
// new. Callers hold m.mu.
func mergeStores(dst, src *arch.SiteStore) int64 {
	var n int64
	for _, id := range src.IDs() {
		if _, have := dst.Get(id); have {
			continue
		}
		if rec, ok := src.Get(id); ok {
			dst.Add(id, rec)
			n++
		}
	}
	return n
}

// missingFrom lists the records of primary that replica lacks, plus their
// total encoded size (the batched transfer's payload). Callers hold m.mu.
func missingFrom(primary, replica *arch.SiteStore) ([]provenance.ID, []*provenance.Record, int) {
	var ids []provenance.ID
	var recs []*provenance.Record
	bytes := 0
	for _, id := range primary.IDs() {
		if _, have := replica.Get(id); have {
			continue
		}
		rec, ok := primary.Get(id)
		if !ok {
			continue
		}
		ids = append(ids, id)
		recs = append(recs, rec)
		bytes += len(rec.Encode())
	}
	return ids, recs, bytes
}

// Tick runs one maintenance round: a Chord stabilization pass (ring
// repair and key re-homing; see Stabilize) followed by a republish round
// in which every published record's postings are pushed again (DHT soft
// state decays without refresh). This is the update load that Section
// IV-C says scales to only tens of thousands of updaters. Records whose
// home is unreachable this round are skipped — the next republish round
// retries them — so one crashed node cannot stall everyone else's
// refresh.
func (m *Model) Tick() error {
	if adm := m.Admission(); adm != nil {
		adm.Tick()
	}
	if _, err := m.Stabilize(); err != nil {
		return err
	}
	m.mu.Lock()
	pubs := append([]arch.Pub(nil), m.published...)
	m.mu.Unlock()
	for _, p := range pubs {
		if _, err := m.publishOnce(p); err != nil {
			if arch.IsUnavailable(err) {
				continue
			}
			return err
		}
	}
	return nil
}

// AvgHops reports the mean routing hops per lookup so far.
func (m *Model) AvgHops() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lookups == 0 {
		return 0
	}
	return float64(m.hopsTotal) / float64(m.lookups)
}

// Rehomed reports how many records stabilization promoted from replica to
// primary ownership (the churn experiment's re-homing column).
func (m *Model) Rehomed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rehomed
}

// HandedOff reports how many records join handoffs have transferred to
// newly admitted nodes (the membership experiment's handoff column).
func (m *Model) HandedOff() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.handedOff
}

// HandoffBytes reports the wire bytes those handoffs cost.
func (m *Model) HandoffBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.handoffBytes
}

// Left reports how many members departed voluntarily through Leave.
func (m *Model) Left() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.left
}

// LeaveHandedOff reports how many records voluntary departures moved to
// their successors (bucket promotions plus the shipped diff).
func (m *Model) LeaveHandedOff() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.leaveHandedOff
}

// LeaveBytes reports the wire bytes the leave diffs cost (announce round
// trips excluded — those are fixed overhead, this is the data moved).
func (m *Model) LeaveBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.leaveBytes
}

// Members reports the current ring membership size (shrinks as Stabilize
// removes crashed nodes, grows as Join admits new ones, and shrinks as
// Leave retires voluntary departures).
func (m *Model) Members() int {
	return len(m.snapshot().nodes)
}

// NodeLoad returns per-node stored record counts (load imbalance and E9's
// per-node update load proxy). Primary ownership only; replicas are not
// counted.
func (m *Model) NodeLoad() []int {
	r := m.snapshot()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(r.stores))
	for i, st := range r.stores {
		out[i] = st.Len()
	}
	return out
}

// HomeOf exposes record placement (tests: placement ignores locality).
func (m *Model) HomeOf(id provenance.ID) netsim.SiteID {
	r := m.snapshot()
	return r.nodes[r.successorIdx(ringPos(id[:]))].site
}
