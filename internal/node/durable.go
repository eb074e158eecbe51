package node

// durable.go is the node's crash-restart story. With Config.DataDir set,
// every applied mutation is appended to a per-node write-ahead log BEFORE
// the verb acknowledges — so the state a restarted process recovers is
// always a superset of what any client or peer saw acknowledged — and the
// log is periodically compacted into a snapshot (temp file + fsync +
// rename, then wal.Reset), bounding replay work.
//
// Record scheme (first byte tags the mutation):
//
//	'r'  roster JSON (the TPeers payload) — a restarted node knows its
//	     peers without harness help
//	'p'  own publish: 8-byte LE sequence + encoded provenance record
//	'd'  applied gossip: the in-sequence run of one TDelta frame, as
//	     a delta frame (gossip.go; a legacy JSON TDelta is logged as
//	     it came, and so are all deltas in logs written before frames)
//	'a'  outbox advance: 4-byte LE peer + 8-byte LE acked sequence
//	's'  applied DHT placement list (placement.go's frame: one per
//	     TStore frame, per local seat of a put, or per pulled chunk;
//	     logs written before placement lists hold one JSON object)
//
// The recovery contract is replay-on-top-of-snapshot idempotence: a crash
// between the snapshot rename and the wal.Reset leaves snapshot + full
// log, and replaying every logged mutation over the restored snapshot
// must land on the same state. Publishes skip when the snapshot's
// sequence already covers them, deltas are refused by the view's
// sequence check, acks take the max, and placements re-add records the
// store dedups.
//
// Two restart flavours emerge:
//
//   - Durable restart (data dir intact): snapshot + WAL rebuild the full
//     pre-kill state minus only unacknowledged suffix; the node answers
//     queries at its old coverage immediately and transfers nothing.
//   - Cold rejoin (data dir wiped): nothing recovers, so the node boots
//     in declared catch-up mode and pulls state at its first tick —
//     passnet merges peer view snapshots over TSnap (fast-forwarding its
//     own sequence so peers' duplicate-suppression doesn't orphan its
//     future publishes), dht asks every peer for the placements its ring
//     seat should hold over TRecover. Both responses routinely exceed
//     the datagram ceiling and ride the wire package's stream framing.
//
// Durability here is against process death (SIGKILL): the write landed
// in the page cache before the ack, which survives the process. Whole-
// machine crash durability additionally needs Config.Fsync, which syncs
// the WAL on every append at a substantial latency cost.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sort"

	"pass/internal/arch"
	"pass/internal/arch/siteview"
	"pass/internal/netsim"
	"pass/internal/provenance"
	"pass/internal/wal"
	"pass/internal/wire"
)

// defaultCompactEvery is the WAL record count that triggers compaction
// when Config.CompactEvery is zero.
const defaultCompactEvery = 256

// recoverChunk bounds the placements a catch-up pull logs per WAL record.
const recoverChunk = 4096

var snapMagic = [8]byte{'P', 'A', 'S', 'S', 'S', 'N', 'P', '1'}

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

func (n *Node) walFile() string  { return filepath.Join(n.cfg.DataDir, "wal.log") }
func (n *Node) snapFile() string { return filepath.Join(n.cfg.DataDir, "snap") }

// snapshot is the compacted on-disk state: magic, CRC, then this JSON.
type snapshot struct {
	Mode   string `json:"mode"`
	Roster []Peer `json:"roster,omitempty"`

	// passnet.
	Seq   uint64           `json:"seq,omitempty"`
	Acked map[int32]uint64 `json:"acked,omitempty"`
	// Own is the retained own-publish window — the publishes some peer
	// may not have acknowledged yet, kept so a restarted node can rebuild
	// its per-peer outboxes — as one delta frame.
	Own  []byte `json:"own,omitempty"`
	View []byte `json:"view,omitempty"`

	// shared: the node's primary record store.
	Recs [][]byte `json:"recs,omitempty"`

	// dht.
	Attrs     map[string][]provenance.ID           `json:"attrs,omitempty"`
	ReplRecs  map[int32][][]byte                   `json:"repl_recs,omitempty"`
	ReplAttrs map[int32]map[string][]provenance.ID `json:"repl_attrs,omitempty"`
}

// recoverData restores node state from the data dir (snapshot first,
// then WAL replay on top) and leaves the WAL open for appending. Called
// from New before the verb handler is installed, so no locking. A node
// that recovers nothing declares catch-up mode and pulls state from its
// peers at its first tick.
func (n *Node) recoverData() error {
	if err := os.MkdirAll(n.cfg.DataDir, 0o755); err != nil {
		return fmt.Errorf("node: data dir: %w", err)
	}
	if err := n.loadSnapshot(); err != nil {
		return err
	}
	var replayed int64
	l, err := wal.Open(n.walFile(), wal.Options{SyncOnAppend: n.cfg.Fsync}, func(p []byte) error {
		replayed++
		return n.replayRecord(p)
	})
	if err != nil {
		return err
	}
	n.log = l
	n.reg.Counter("pass_wal_replays_total").Add(replayed)
	if replayed > 0 {
		n.recovered = true
	}
	n.rebuildOutboxLocked()
	if !n.recovered {
		n.catchup = true
	}
	return nil
}

// loadSnapshot restores the compacted state, if any. A corrupt snapshot
// is a hard error: starting empty while the WAL assumes the snapshot's
// base state would silently diverge, which is worse than refusing.
func (n *Node) loadSnapshot() error {
	b, err := os.ReadFile(n.snapFile())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("node: read snapshot: %w", err)
	}
	if len(b) < 12 || [8]byte(b[:8]) != snapMagic {
		return fmt.Errorf("node: %s is not a snapshot", n.snapFile())
	}
	if crc32.Checksum(b[12:], snapCRCTable) != binary.LittleEndian.Uint32(b[8:12]) {
		return fmt.Errorf("node: snapshot %s fails its checksum", n.snapFile())
	}
	var s snapshot
	if err := json.Unmarshal(b[12:], &s); err != nil {
		return fmt.Errorf("node: decode snapshot: %w", err)
	}
	if s.Mode != n.cfg.Mode {
		return fmt.Errorf("node: snapshot is mode %q, node is %q", s.Mode, n.cfg.Mode)
	}
	if len(s.Roster) > 0 {
		if err := n.setRosterLocked(s.Roster); err != nil {
			return err
		}
	}
	switch n.cfg.Mode {
	case "passnet":
		n.seq = s.Seq
		for pid, sq := range s.Acked {
			n.acked[pid] = sq
		}
		if len(s.View) > 0 {
			v, err := siteview.DecodeView(s.View)
			if err != nil {
				return fmt.Errorf("node: decode snapshot view: %w", err)
			}
			n.view = v
		}
		if len(s.Own) > 0 {
			ds, err := decodeDeltas(s.Own)
			if err != nil {
				return fmt.Errorf("node: decode snapshot own deltas: %w", err)
			}
			for _, d := range ds {
				n.own[d.Seq] = d
			}
		}
		for _, rb := range s.Recs {
			rec, err := provenance.Decode(rb)
			if err != nil {
				return fmt.Errorf("node: decode snapshot record: %w", err)
			}
			id := rec.ComputeID()
			n.store.Add(id, rec)
			for _, a := range arch.QueriableAttrs(rec) {
				mk := mkOf(a)
				n.posts[mk] = append(n.posts[mk], id)
			}
		}
	case "dht":
		for _, rb := range s.Recs {
			rec, err := provenance.Decode(rb)
			if err != nil {
				return fmt.Errorf("node: decode snapshot record: %w", err)
			}
			n.store.Add(rec.ComputeID(), rec)
		}
		for mk, ids := range s.Attrs {
			n.attrs[mk] = append([]provenance.ID(nil), ids...)
		}
		for src, recs := range s.ReplRecs {
			rs := n.replicaStoreFor(src)
			for _, rb := range recs {
				rec, err := provenance.Decode(rb)
				if err != nil {
					return fmt.Errorf("node: decode snapshot replica record: %w", err)
				}
				rs.Add(rec.ComputeID(), rec)
			}
		}
		for src, bucket := range s.ReplAttrs {
			dst := make(map[string][]provenance.ID, len(bucket))
			for mk, ids := range bucket {
				dst[mk] = append([]provenance.ID(nil), ids...)
			}
			n.replAttrs[src] = dst
		}
	}
	n.recovered = true
	return nil
}

// replayRecord applies one WAL record during recovery. Every branch is
// idempotent against a snapshot that already contains the mutation (the
// crash-between-rename-and-reset window).
func (n *Node) replayRecord(p []byte) error {
	if len(p) == 0 {
		return fmt.Errorf("node: empty wal record")
	}
	tag, body := p[0], p[1:]
	switch tag {
	case 'r':
		var roster []Peer
		if err := json.Unmarshal(body, &roster); err != nil {
			return fmt.Errorf("node: wal roster: %w", err)
		}
		return n.setRosterLocked(roster)
	case 'p':
		if len(body) < 8 {
			return fmt.Errorf("node: short wal publish")
		}
		seq := binary.LittleEndian.Uint64(body[:8])
		if seq <= n.seq {
			// Already in the snapshot. Judged by sequence, not by record:
			// a record put twice holds two sequence numbers, and skipping
			// the second would let a restart reuse one peers have applied.
			return nil
		}
		rec, err := provenance.Decode(body[8:])
		if err != nil {
			return fmt.Errorf("node: wal publish record: %w", err)
		}
		n.applyOwnPublishLocked(seq, rec.ComputeID(), rec)
		return nil
	case 'd':
		ds, err := decodeDeltas(body)
		if err != nil {
			return fmt.Errorf("node: wal delta: %w", err)
		}
		// Stale deltas are skipped, as live — idempotent.
		_, err = n.applyDeltasLocked(body, ds)
		return err
	case 'a':
		if len(body) != 12 {
			return fmt.Errorf("node: short wal advance")
		}
		pid := int32(binary.LittleEndian.Uint32(body[:4]))
		n.advanceAckedLocked(pid, binary.LittleEndian.Uint64(body[4:12]))
		return nil
	case 's':
		ps, err := decodeStore(body)
		if err != nil {
			return fmt.Errorf("node: wal store: %w", err)
		}
		for _, p := range ps {
			if err := n.applyStoreLocked(p); err != nil {
				return fmt.Errorf("node: wal store: %w", err)
			}
		}
		return nil
	default:
		return fmt.Errorf("node: unknown wal record tag %q", tag)
	}
}

// applyOwnPublishLocked commits one of this node's own publishes: store,
// postings, view, sequence, and the retained-delta window the outbox
// rebuild draws from. Shared by the live put path and WAL replay. Caller
// holds n.mu (or is in single-threaded recovery).
func (n *Node) applyOwnPublishLocked(seq uint64, id provenance.ID, rec *provenance.Record) *siteview.Delta {
	n.store.Add(id, rec)
	var keys []string
	for _, a := range arch.QueriableAttrs(rec) {
		mk := mkOf(a)
		keys = append(keys, mk)
		n.posts[mk] = append(n.posts[mk], id)
	}
	d := siteview.NewDelta(netsim.SiteID(n.cfg.ID), seq, []provenance.ID{id}, keys)
	n.view.Apply(d)
	if seq > n.seq {
		n.seq = seq
	}
	n.own[seq] = d
	return d
}

// advanceAckedLocked records that peer pid has acknowledged own deltas
// through seq, and prunes retained deltas every peer has acknowledged.
func (n *Node) advanceAckedLocked(pid int32, seq uint64) {
	if seq > n.acked[pid] {
		n.acked[pid] = seq
	}
	n.pruneOwnLocked()
}

// pruneOwnLocked drops retained own deltas at or below the minimum
// acknowledged sequence across the current roster (with no peers there
// is nothing left to resend).
func (n *Node) pruneOwnLocked() {
	min := n.seq
	for _, pid := range n.order {
		if a := n.acked[pid]; a < min {
			min = a
		}
	}
	for sq := range n.own {
		if sq <= min {
			delete(n.own, sq)
		}
	}
}

// rebuildOutboxLocked re-enqueues, for every peer, the own deltas past
// that peer's acknowledged sequence — the restart continuation of the
// strict in-order outbox discipline.
func (n *Node) rebuildOutboxLocked() {
	for _, pid := range n.order {
		n.outbox[pid] = n.outbox[pid][:0]
		for sq := n.acked[pid] + 1; sq <= n.seq; sq++ {
			if d := n.own[sq]; d != nil {
				n.outbox[pid] = append(n.outbox[pid], d)
			}
		}
	}
}

// walAppend logs one mutation record, then runs apply to make the
// mutation live. Caller holds n.mu; append-before-ack is the durability
// contract, so callers append before their reply and nack (TErr) when
// the append fails — and apply does not run, so nothing the log lacks
// is sequenced or gossiped. apply is nil for the idempotent mutations
// (roster, placements) that apply first and leave a superset when the
// append fails. Crossing the compaction threshold checkpoints inline,
// after apply so the snapshot holds the mutation whose record the reset
// drops (a local disk write, bounded by state size); a failed
// checkpoint is counted but returns nil, because the record itself is
// already in the log.
func (n *Node) walAppend(tag byte, body []byte, apply func()) error {
	if n.log == nil {
		if apply != nil {
			apply()
		}
		return nil
	}
	rec := make([]byte, 1+len(body))
	rec[0] = tag
	copy(rec[1:], body)
	if err := n.log.Append(rec); err != nil {
		n.reg.Counter("pass_wal_errors_total").Inc()
		return err
	}
	n.reg.Counter("pass_wal_appends_total").Inc()
	n.reg.Counter("pass_wal_bytes_total").Add(int64(1 + len(body)))
	if apply != nil {
		apply()
	}
	if n.log.Count() >= n.compactEvery() {
		if err := n.compactLocked(); err != nil {
			n.reg.Counter("pass_wal_errors_total").Inc()
		}
	}
	return nil
}

func (n *Node) compactEvery() int64 {
	if n.cfg.CompactEvery > 0 {
		return n.cfg.CompactEvery
	}
	return defaultCompactEvery
}

// Compact checkpoints the node's state into the snapshot file and
// truncates the WAL. No-op without a data dir.
func (n *Node) Compact() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.compactLocked()
}

func (n *Node) compactLocked() error {
	if n.log == nil {
		return nil
	}
	if err := n.writeSnapshotLocked(); err != nil {
		return err
	}
	// Crash window: snapshot renamed, WAL not yet reset — replay over the
	// snapshot is idempotent by construction, so recovery still lands on
	// the same state.
	if err := n.log.Reset(); err != nil {
		return err
	}
	n.reg.Counter("pass_wal_truncations_total").Inc()
	return nil
}

// writeSnapshotLocked serializes the node's state and atomically
// replaces the snapshot file: temp file, fsync, rename. A crash before
// the rename leaves a stray .tmp the next recovery ignores; a crash
// after it is the idempotent-replay window compactLocked describes.
func (n *Node) writeSnapshotLocked() error {
	s := snapshot{Mode: n.cfg.Mode}
	for _, pid := range n.order {
		s.Roster = append(s.Roster, Peer{ID: pid, Addr: n.peers[pid].String()})
	}
	for _, id := range n.store.IDs() {
		rec, _ := n.store.Get(id)
		s.Recs = append(s.Recs, rec.Encode())
	}
	switch n.cfg.Mode {
	case "passnet":
		s.Seq = n.seq
		s.Acked = make(map[int32]uint64, len(n.acked))
		for pid, sq := range n.acked {
			s.Acked[pid] = sq
		}
		n.pruneOwnLocked()
		own := make([]*siteview.Delta, 0, len(n.own))
		for _, d := range n.own {
			own = append(own, d)
		}
		sort.Slice(own, func(i, j int) bool { return own[i].Seq < own[j].Seq })
		if len(own) > 0 {
			s.Own = appendDeltas(nil, n.cfg.ID, own)
		}
		view, err := n.view.Encode()
		if err != nil {
			return fmt.Errorf("node: encode view: %w", err)
		}
		s.View = view
	case "dht":
		s.Attrs = make(map[string][]provenance.ID, len(n.attrs))
		for mk, ids := range n.attrs {
			s.Attrs[mk] = dedupe(append([]provenance.ID(nil), ids...))
		}
		s.ReplRecs = make(map[int32][][]byte, len(n.replRecs))
		for src, rs := range n.replRecs {
			for _, id := range rs.IDs() {
				rec, _ := rs.Get(id)
				s.ReplRecs[src] = append(s.ReplRecs[src], rec.Encode())
			}
		}
		s.ReplAttrs = make(map[int32]map[string][]provenance.ID, len(n.replAttrs))
		for src, bucket := range n.replAttrs {
			dst := make(map[string][]provenance.ID, len(bucket))
			for mk, ids := range bucket {
				dst[mk] = dedupe(append([]provenance.ID(nil), ids...))
			}
			s.ReplAttrs[src] = dst
		}
	}
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("node: encode snapshot: %w", err)
	}
	buf := make([]byte, 12+len(payload))
	copy(buf, snapMagic[:])
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(payload, snapCRCTable))
	copy(buf[12:], payload)

	tmp := n.snapFile() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("node: snapshot temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("node: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("node: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("node: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, n.snapFile()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("node: snapshot rename: %w", err)
	}
	return nil
}

// ---- catch-up: the cold-rejoin pull path ----

// catchUpIfDue runs the declared catch-up pull when the node booted with
// a data dir but recovered nothing. Invoked at the top of every TTick;
// queries served before it completes answer from whatever partial state
// exists (the degraded mode TStat reports as catching_up).
func (n *Node) catchUpIfDue() {
	n.mu.Lock()
	if !n.catchup || len(n.order) == 0 {
		n.mu.Unlock()
		return
	}
	type target struct {
		id   int32
		addr *net.UDPAddr
	}
	peers := make([]target, 0, len(n.order))
	for _, pid := range n.order {
		peers = append(peers, target{pid, n.peers[pid]})
	}
	mode := n.cfg.Mode
	n.mu.Unlock()

	pulled := false
	for _, p := range peers {
		switch mode {
		case "passnet":
			// Pull every reachable peer's view snapshot, not just one:
			// each peer's own sequence only its view is guaranteed to
			// carry current, and merging fast-forwards the seq vector so
			// redelivered outbox tails dedupe instead of gapping.
			resp, err := n.ep.RequestStream(p.addr, wire.TSnap, nil)
			if err != nil {
				continue
			}
			v, err := siteview.DecodeView(resp.Payload)
			if err != nil {
				continue
			}
			n.mu.Lock()
			n.view.Merge(v)
			// Fast-forward own sequence past anything peers already saw
			// from the pre-wipe incarnation, or new publishes would be
			// suppressed as duplicates forever.
			if s := v.Seq(netsim.SiteID(n.cfg.ID)); s > n.seq {
				n.seq = s
			}
			n.mu.Unlock()
			pulled = true
		case "dht":
			var seat [4]byte
			binary.LittleEndian.PutUint32(seat[:], uint32(n.cfg.ID))
			resp, err := n.ep.RequestStream(p.addr, wire.TRecover, seat[:])
			if err != nil {
				continue
			}
			ps, err := decodeStore(resp.Payload)
			if err != nil {
				continue
			}
			// Through the batch apply so the pulled placements are
			// WAL-logged — pulled state must survive the NEXT crash.
			for len(ps) > 0 {
				chunk := ps[:min(len(ps), recoverChunk)]
				_ = n.storeBatch(chunk, nil) // the compaction below snapshots it anyway
				ps = ps[len(chunk):]
			}
			pulled = true
		}
	}
	if pulled {
		n.mu.Lock()
		n.catchup = false
		n.reg.Counter("pass_node_catchup_pulls_total").Inc()
		// Checkpoint the pulled state immediately: it arrived over the
		// wire, not through the WAL append path.
		if err := n.compactLocked(); err != nil {
			n.reg.Counter("pass_wal_errors_total").Inc()
		}
		n.mu.Unlock()
	}
}

// handleSnap serves the node's full view to a catching-up peer. The
// response routinely exceeds the datagram ceiling; requesters use the
// stream framing (RequestStream).
func (n *Node) handleSnap(reply func(wire.Type, []byte)) {
	if n.cfg.Mode != "passnet" {
		reply(wire.TErr, []byte("snap: not a passnet node"))
		return
	}
	n.mu.Lock()
	b, err := n.view.Encode()
	n.mu.Unlock()
	if err != nil {
		reply(wire.TErr, []byte(err.Error()))
		return
	}
	reply(wire.TSnapOK, b)
}

// handleRecover computes, on this node's current ring, every placement
// the requesting seat should hold out of what this node stores — the
// DHT's cold-rejoin transfer. The requester is marked live (it is
// provably up: it asked).
func (n *Node) handleRecover(payload []byte, reply func(wire.Type, []byte)) {
	if n.cfg.Mode != "dht" {
		reply(wire.TErr, []byte("recover: not a dht node"))
		return
	}
	if len(payload) != 4 {
		reply(wire.TErr, []byte("recover: want 4-byte seat"))
		return
	}
	seat := int32(binary.LittleEndian.Uint32(payload))
	n.mu.Lock()
	n.alive[seat] = true
	ps := n.placementsForLocked(seat)
	n.mu.Unlock()
	reply(wire.TRecoverOK, appendStore(nil, ps))
}

// placementsForLocked scans every record and attribute posting this node
// holds (primary and replica buckets alike) and keeps those whose
// placement walk on the current ring includes the given seat. Caller
// holds n.mu.
func (n *Node) placementsForLocked(seat int32) []placement {
	var ps []placement
	seenRec := make(map[provenance.ID]bool)
	addRec := func(id provenance.ID, rec *provenance.Record) {
		if seenRec[id] {
			return
		}
		seenRec[id] = true
		seats := n.liveSuccessors(ringPosBytes(id[:]), 1+replicaFanout)
		if pos := seatIndex(seats, seat); pos >= 0 {
			ps = append(ps, placement{
				kind: kindRec, replica: pos > 0, src: seats[0], rec: rec.Encode(),
			})
		}
	}
	for _, id := range n.store.IDs() {
		rec, _ := n.store.Get(id)
		addRec(id, rec)
	}
	for _, rs := range n.replRecs {
		for _, id := range rs.IDs() {
			rec, _ := rs.Get(id)
			addRec(id, rec)
		}
	}
	seenAttr := make(map[string]bool)
	addAttrs := func(mk string, ids []provenance.ID) {
		seats := n.liveSuccessors(ringPosBytes([]byte(mk)), 1+replicaFanout)
		pos := seatIndex(seats, seat)
		if pos < 0 {
			return
		}
		for _, id := range ids {
			k := mk + string(id[:])
			if seenAttr[k] {
				continue
			}
			seenAttr[k] = true
			ps = append(ps, placement{
				kind: kindAttr, replica: pos > 0, src: seats[0], mk: []byte(mk), id: id,
			})
		}
	}
	for mk, ids := range n.attrs {
		addAttrs(mk, ids)
	}
	for _, bucket := range n.replAttrs {
		for mk, ids := range bucket {
			addAttrs(mk, ids)
		}
	}
	return ps
}

func seatIndex(seats []int32, seat int32) int {
	for i, s := range seats {
		if s == seat {
			return i
		}
	}
	return -1
}
