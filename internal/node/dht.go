package node

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"

	"pass/internal/arch"
	"pass/internal/provenance"
	"pass/internal/wire"
)

// The dht mode places records and attribute postings on a static ring
// of node IDs using the SAME position formula as the in-process dht
// model, so a seeded schedule lands keys on the same logical seats on
// either backend. Placement is primary + two replicas along the live
// successor list; liveness is learned by TPing probes during TTick
// (and only there — see the comment above handleStore). Queries walk
// the same successor list, so a killed primary's keys stay answerable
// from whichever replica holder the walk reaches first — the
// real-process counterpart of the model's Stabilize recovery in E16.

// replicaFanout is how many successors past the primary hold copies
// (the dht model's ReplicaFanout).
const replicaFanout = 2

// ringSeat is one node's position on the placement ring.
type ringSeat struct {
	id  int32
	pos uint64
}

// ringPosOfNode must match dht.ringPosOfSite exactly: the conformance
// cross-check relies on both backends placing keys identically.
func ringPosOfNode(id int32) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(id)+0x5851F42D4C957F2D)
	return ringPosBytes(buf[:])
}

// ringPosBytes must match dht.ringPos: sha256, first 8 bytes LE.
func ringPosBytes(b []byte) uint64 {
	sum := sha256.Sum256(b)
	return binary.LittleEndian.Uint64(sum[:8])
}

// rebuildRing recomputes the full ring (self + peers). Caller holds n.mu.
func (n *Node) rebuildRing() {
	n.ring = n.ring[:0]
	n.ring = append(n.ring, ringSeat{n.cfg.ID, ringPosOfNode(n.cfg.ID)})
	for _, pid := range n.order {
		n.ring = append(n.ring, ringSeat{pid, ringPosOfNode(pid)})
		if _, ok := n.alive[pid]; !ok {
			n.alive[pid] = true
		}
	}
	sort.Slice(n.ring, func(i, j int) bool { return n.ring[i].pos < n.ring[j].pos })
}

// liveSuccessors returns up to k live node IDs clockwise from hash
// (self counts as live). Caller holds n.mu.
func (n *Node) liveSuccessors(hash uint64, k int) []int32 {
	if len(n.ring) == 0 {
		return nil
	}
	start := sort.Search(len(n.ring), func(i int) bool { return n.ring[i].pos >= hash })
	out := make([]int32, 0, k)
	for i := 0; i < len(n.ring) && len(out) < k; i++ {
		seat := n.ring[(start+i)%len(n.ring)]
		if seat.id != n.cfg.ID && !n.alive[seat.id] {
			continue
		}
		out = append(out, seat.id)
	}
	return out
}

// Liveness is learned ONLY from tick-time TPing probes (dhtTick), never
// inferred from placement or query timeouts: under packet loss a
// retry-exhausted request to a live peer is common enough that treating
// it as death routes later keys around healthy seats and diverges from
// the netsim rows (the model, likewise, only learns death from
// Stabilize probes). A request that fails against a seat simply falls
// through to the next seat in the walk.

// handleStore accepts one placement list (see placement.go): apply,
// WAL-log, then acknowledge — a placement a peer saw acknowledged
// survives this node's crash.
func (n *Node) handleStore(payload []byte, reply func(wire.Type, []byte)) {
	if n.cfg.Mode != "dht" {
		reply(wire.TErr, []byte("store: not a dht node"))
		return
	}
	ps, err := decodeStore(payload)
	if err == nil {
		err = n.storeBatch(ps, payload)
	}
	if err != nil {
		reply(wire.TErr, []byte(err.Error()))
		return
	}
	reply(wire.TStoreOK, nil)
}

// storeBatch applies a placement list in one n.mu hold and logs it as
// one 's' record whose body is frame (ps encoded, or the bytes ps was
// decoded from; nil encodes ps). A list that fails part-way is neither
// logged nor acknowledged; its applied prefix stays in memory, a
// superset the recovery contract allows. An applied list joins the
// pending lists even when its append fails: the next checkpoint then
// holds that superset too.
func (n *Node) storeBatch(ps []placement, frame []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range ps {
		if err := n.applyStoreLocked(p); err != nil {
			return err
		}
	}
	if n.log == nil {
		return nil
	}
	if frame == nil {
		frame = appendStore(nil, ps)
	}
	n.pend.lists = append(n.pend.lists, frame)
	return n.walAppend('s', frame, nil)
}

// applyStoreLocked is the placement mutation proper — shared by the live
// TStore verb, WAL replay, and the catch-up pull. Caller holds n.mu (or
// is in single-threaded recovery).
func (n *Node) applyStoreLocked(p placement) error {
	switch p.kind {
	case kindRec:
		rec, err := provenance.Decode(p.rec)
		if err != nil {
			return err
		}
		id := rec.ComputeID()
		if p.replica {
			n.replicaStoreFor(p.src).Add(id, rec)
		} else {
			n.store.Add(id, rec)
		}
	case kindAttr:
		mk := string(p.mk)
		if p.replica {
			bucket := n.replAttrs[p.src]
			if bucket == nil {
				bucket = make(map[string][]provenance.ID)
				n.replAttrs[p.src] = bucket
			}
			bucket[mk] = append(bucket[mk], p.id)
		} else {
			n.attrs[mk] = append(n.attrs[mk], p.id)
		}
	default:
		return fmt.Errorf("store: unknown kind %d", p.kind)
	}
	return nil
}

// replicaStoreFor returns (creating if needed) the replica record
// bucket shadowing the given primary seat. Caller holds n.mu.
func (n *Node) replicaStoreFor(src int32) *arch.SiteStore {
	rs, ok := n.replRecs[src]
	if !ok {
		rs = arch.NewSiteStore()
		n.replRecs[src] = rs
	}
	return rs
}

// seatList is the part of one put that lands on one seat.
type seatList struct {
	seat int32
	addr *net.UDPAddr // nil for this node, or an unknown peer
	ps   []placement
	ok   bool
}

// placeAll delivers each seat's list: one TStore frame per remote seat,
// all in flight at once, while this node's own list applies inline. It
// returns once every seat has answered or used up sendRetries, with
// each list's ok set. No lock is held across the sends.
func (n *Node) placeAll(lists []seatList) {
	var wg sync.WaitGroup
	for i := range lists {
		l := &lists[i]
		if l.seat == n.cfg.ID || l.addr == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := n.ep.RequestRetry(l.addr, wire.TStore, appendStore(nil, l.ps), sendRetries)
			l.ok = err == nil
		}()
	}
	for i := range lists {
		if l := &lists[i]; l.seat == n.cfg.ID {
			l.ok = n.storeBatch(l.ps, nil) == nil
		}
	}
	wg.Wait()
}

// seatListsLocked groups one put's placements by seat: the record at its
// first live successor with replicaFanout copies on the following seats,
// and each queriable attribute posting likewise at its own hash. The
// record's primary seat's list comes first; an empty ring yields none.
// Caller holds n.mu.
func (n *Node) seatListsLocked(id provenance.ID, rec *provenance.Record, raw []byte) []seatList {
	var lists []seatList
	add := func(seat int32, p placement) {
		for i := range lists {
			if lists[i].seat == seat {
				lists[i].ps = append(lists[i].ps, p)
				return
			}
		}
		lists = append(lists, seatList{seat: seat, addr: n.peers[seat], ps: []placement{p}})
	}
	recSeats := n.liveSuccessors(ringPosBytes(id[:]), 1+replicaFanout)
	if len(recSeats) == 0 {
		return nil
	}
	for i, seat := range recSeats {
		add(seat, placement{kind: kindRec, replica: i > 0, src: recSeats[0], rec: raw})
	}
	for _, a := range arch.QueriableAttrs(rec) {
		mk := []byte(mkOf(a))
		attrSeats := n.liveSuccessors(ringPosBytes(mk), 1+replicaFanout)
		for i, seat := range attrSeats {
			add(seat, placement{kind: kindAttr, replica: i > 0, src: attrSeats[0], mk: mk, id: id})
		}
	}
	return lists
}

// dhtPut places the record and each of its queriable attribute postings
// at the first live successor of their hashes, with replicaFanout
// copies on the following seats: one placement list per seat, the
// seats served in parallel. The put acks once the record's primary
// placement lands; replicas and postings are best-effort (the model's
// charged-but-async replication). A nack does not mean nothing landed:
// the seats that answered keep their placements, so a failed put may be
// readable from its replicas and postings (as it always was when only
// the primary's ack was lost). Every placement is idempotent, so the
// client's retry is safe.
func (n *Node) dhtPut(id provenance.ID, rec *provenance.Record, raw []byte, reply func(wire.Type, []byte)) {
	n.mu.Lock()
	lists := n.seatListsLocked(id, rec, raw)
	n.mu.Unlock()
	if len(lists) == 0 {
		reply(wire.TErr, []byte("put: empty ring"))
		return
	}
	n.placeAll(lists)
	if !lists[0].ok {
		// Primary unreachable: retry placement down the (now shorter)
		// live list rather than failing the publish.
		n.mu.Lock()
		recSeats := n.liveSuccessors(ringPosBytes(id[:]), 1)
		var retry []seatList
		if len(recSeats) > 0 {
			retry = []seatList{{seat: recSeats[0], addr: n.peers[recSeats[0]],
				ps: []placement{{kind: kindRec, src: recSeats[0], rec: raw}}}}
		}
		n.mu.Unlock()
		n.placeAll(retry)
		if len(retry) == 0 || !retry[0].ok {
			reply(wire.TErr, []byte("put: home unreachable"))
			return
		}
	}
	reply(wire.TPutOK, id[:])
}

// dhtQuery walks the successor list of the key's hash and returns the
// first reachable seat's answer (primary plus replica postings — see
// handleAttrQ), so a dead primary falls through to a replica holder.
func (n *Node) dhtQuery(mk string, reply func(wire.Type, []byte)) {
	n.mu.Lock()
	seats := n.liveSuccessors(ringPosBytes([]byte(mk)), 1+replicaFanout)
	n.mu.Unlock()
	for _, seat := range seats {
		if seat == n.cfg.ID {
			var out []byte
			n.handleAttrQ([]byte(mk), func(_ wire.Type, p []byte) { out = p })
			reply(wire.TQueryOK, out)
			return
		}
		n.mu.Lock()
		addr := n.peers[seat]
		n.mu.Unlock()
		if addr == nil {
			continue
		}
		resp, err := n.ep.RequestRetry(addr, wire.TAttrQ, []byte(mk), sendRetries)
		if err != nil {
			continue
		}
		reply(wire.TQueryOK, resp.Payload)
		return
	}
	reply(wire.TErr, []byte("query: no reachable seat"))
}

// dhtGet fetches the record from the successor list of its ID hash.
func (n *Node) dhtGet(id provenance.ID, reply func(wire.Type, []byte)) {
	n.mu.Lock()
	seats := n.liveSuccessors(ringPosBytes(id[:]), 1+replicaFanout)
	n.mu.Unlock()
	for _, seat := range seats {
		if seat == n.cfg.ID {
			n.handleFetch(id[:], func(t wire.Type, p []byte) {
				if t == wire.TFetchOK {
					reply(wire.TGetOK, p)
				} else {
					reply(t, p)
				}
			})
			return
		}
		n.mu.Lock()
		addr := n.peers[seat]
		n.mu.Unlock()
		if addr == nil {
			continue
		}
		resp, err := n.ep.RequestRetry(addr, wire.TFetch, id[:], sendRetries)
		if err != nil {
			continue
		}
		reply(wire.TGetOK, resp.Payload)
		return
	}
	reply(wire.TErr, []byte("get: no reachable seat"))
}

// dhtTick probes every peer with TPing and refreshes the liveness map —
// the maintenance round that lets routing skip killed nodes, standing
// in for the model's Stabilize.
func (n *Node) dhtTick(reply func(wire.Type, []byte)) {
	n.mu.Lock()
	type probe struct {
		id   int32
		addr *net.UDPAddr
	}
	probes := make([]probe, 0, len(n.peers))
	for _, pid := range n.order {
		probes = append(probes, probe{pid, n.peers[pid]})
	}
	n.mu.Unlock()
	for _, p := range probes {
		_, err := n.ep.RequestRetry(p.addr, wire.TPing, nil, sendRetries)
		n.mu.Lock()
		n.alive[p.id] = err == nil
		n.mu.Unlock()
	}
	reply(wire.TTickOK, nil)
}
