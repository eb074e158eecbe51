package node

// durable.go is the node's crash-restart story. With Config.DataDir set,
// the node keeps two logs in its data dir, both wal.Logs (CRC-framed
// records, a torn tail truncated at open):
//
//   - wal.log, the write-ahead log: every applied mutation is appended
//     BEFORE the verb acknowledges, so the state a restarted process
//     recovers is always a superset of what any client or peer saw
//     acknowledged;
//   - snap, the checkpoint log: every CompactEvery WAL records the node
//     appends one checkpoint holding only what it applied since the
//     previous one, syncs it, and resets the WAL. A checkpoint costs
//     O(records since the last one), never O(store); the log is never
//     rewritten.
//
// WAL record scheme (first byte tags the mutation):
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
// A checkpoint record is a mode byte ('p' passnet, 'd' dht) and then
// parts to the end of the record, each len:uvarint tag:byte body, tagged
// like WAL records:
//
//	'r'  the roster (omitted with no peers)
//	'a'  one per peer: its acknowledged sequence, as the WAL's 'a'
//	'n'  passnet: 8-byte LE own sequence
//	'o'  passnet: the retained own-publish window, one delta frame —
//	     bounded by what peers have not acknowledged, not by the store
//	'p'  passnet: each 'p' body logged since the previous checkpoint
//	'v'  passnet: one view frame (siteview.EncodeDeltas) of the deltas
//	     applied since then, own and peers'; after a TSnap catch-up
//	     merge, the whole view
//	's'  dht: each 's' body logged since the previous checkpoint
//
// The node collects what the next checkpoint holds in its pending lists
// on every apply path, WAL replay included, so the first checkpoint
// after a restart covers the replayed tail before the WAL is reset.
//
// Recovery loads the checkpoints in order, then replays the WAL. The
// contract is that replay on top of the checkpoints is idempotent: a
// crash between a checkpoint's sync and the wal.Reset leaves both, and
// replaying every logged mutation must land on the same state.
// Publishes skip when the recovered sequence already covers them,
// deltas are refused by the view's sequence check, acks take the max,
// and placements re-add records the store dedups. A checkpoint torn by
// a crash is dropped at open, and the un-reset WAL replays what it held.
//
// Two restart flavours emerge:
//
//   - Durable restart (data dir intact): checkpoints + WAL rebuild the
//     full pre-kill state minus only unacknowledged suffix; the node
//     answers queries at its old coverage immediately and transfers
//     nothing.
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

// defaultCompactEvery is the WAL record count that triggers a
// checkpoint when Config.CompactEvery is zero.
const defaultCompactEvery = 256

// recoverChunk bounds the placements a catch-up pull logs per WAL record.
const recoverChunk = 4096

var errBadCheckpoint = errors.New("node: bad checkpoint record")

func (n *Node) walFile() string  { return filepath.Join(n.cfg.DataDir, "wal.log") }
func (n *Node) ckptFile() string { return filepath.Join(n.cfg.DataDir, "snap") }

// pending is what the node has applied since its last checkpoint: the
// body of the next one. Filled only on a node with a data dir.
type pending struct {
	pubs      [][]byte          // passnet: 'p' WAL bodies
	deltas    []*siteview.Delta // passnet: deltas applied to the view
	wholeView bool              // passnet: a TSnap merge; checkpoint the whole view
	lists     [][]byte          // dht: 's' WAL bodies
}

// appendPart appends one checkpoint part.
func appendPart(dst []byte, tag byte, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(1+len(body)))
	return append(append(dst, tag), body...)
}

// decodeCheckpoint skips a checkpoint record's mode byte and hands each
// part (its tag byte first) to fn in order, stopping at fn's first
// error. It accepts only minimal lengths and no empty part, so every
// record it accepts re-encodes to exactly its input; each part's body is
// checked by its own decoder when fn applies it.
func decodeCheckpoint(b []byte, fn func(part []byte) error) error {
	if len(b) == 0 {
		return errBadCheckpoint
	}
	for b = b[1:]; len(b) > 0; {
		part, err := lengthPrefixed(&b)
		if err != nil {
			return err
		}
		if len(part) == 0 {
			return errBadCheckpoint
		}
		if err := fn(part); err != nil {
			return err
		}
	}
	return nil
}

// recoverData restores node state from the data dir (the checkpoints in
// order, then WAL replay on top) and leaves both logs open for
// appending. Called from New before the verb handler is installed, so
// no locking. A node that recovers nothing declares catch-up mode and
// pulls state from its peers at its first tick.
func (n *Node) recoverData() error {
	if err := os.MkdirAll(n.cfg.DataDir, 0o755); err != nil {
		return fmt.Errorf("node: data dir: %w", err)
	}
	var loaded, replayed int64
	ck, err := wal.Open(n.ckptFile(), wal.Options{}, func(p []byte) error {
		loaded++
		return n.loadCheckpoint(p)
	})
	if err != nil {
		return fmt.Errorf("node: checkpoint log: %w", err)
	}
	n.pend = pending{} // the checkpoints hold it already
	l, err := wal.Open(n.walFile(), wal.Options{SyncOnAppend: n.cfg.Fsync}, func(p []byte) error {
		replayed++
		return n.replayRecord(p)
	})
	if err != nil {
		ck.Close()
		return err
	}
	n.log, n.ckpt = l, ck
	n.reg.Counter("pass_wal_replays_total").Add(replayed)
	n.recovered = loaded > 0 || replayed > 0
	n.rebuildOutboxLocked()
	if !n.recovered {
		n.catchup = true
	}
	return nil
}

// loadCheckpoint applies one checkpoint record during recovery: the
// roster, ack and placement parts as WAL replay applies them, the rest
// below. Any fault is a hard error: starting from part of the state
// while the WAL assumes all of it would silently diverge, which is
// worse than refusing.
func (n *Node) loadCheckpoint(p []byte) error {
	if len(p) > 0 && p[0] != n.cfg.Mode[0] {
		return fmt.Errorf("node: %s holds a %q checkpoint, node mode is %q", n.ckptFile(), p[0], n.cfg.Mode)
	}
	// The own window replaces the previous checkpoint's: it is the whole
	// retained set at this checkpoint.
	n.own = make(map[uint64]*siteview.Delta)
	err := decodeCheckpoint(p, func(part []byte) error {
		tag, body := part[0], part[1:]
		switch tag {
		case 'n':
			if len(body) != 8 {
				return errBadCheckpoint
			}
			n.seq = max(n.seq, binary.LittleEndian.Uint64(body))
		case 'o':
			ds, err := decodeDeltas(body)
			for _, d := range ds {
				n.own[d.Seq] = d
			}
			return err
		case 'p':
			if len(body) < 8 {
				return errBadCheckpoint
			}
			rec, err := provenance.Decode(body[8:])
			if err != nil {
				return err
			}
			n.store.Add(rec.ComputeID(), rec)
		case 'v':
			return n.view.MergeEncoded(body)
		case 'r', 'a', 's':
			return n.replayRecord(part)
		default:
			return fmt.Errorf("%w: part %q", errBadCheckpoint, tag)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("node: %s: %w", n.ckptFile(), err)
	}
	return nil
}

// replayRecord applies one WAL record during recovery. Every branch is
// idempotent against checkpoints that already contain the mutation (the
// crash-between-sync-and-reset window), and every branch fills the
// pending lists as the live path does.
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
			// Already checkpointed. Judged by sequence, not by record: a
			// record put twice holds two sequence numbers, and skipping
			// the second would let a restart reuse one peers have applied.
			return nil
		}
		rec, err := provenance.Decode(body[8:])
		if err != nil {
			return fmt.Errorf("node: wal publish record: %w", err)
		}
		n.applyOwnPublishLocked(seq, rec.ComputeID(), rec, body)
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
		n.pend.lists = append(n.pend.lists, body)
		return nil
	default:
		return fmt.Errorf("node: unknown wal record tag %q", tag)
	}
}

// applyOwnPublishLocked commits one of this node's own publishes: store
// (whose attribute index serves the node's postings), view, sequence,
// and the retained-delta window the outbox rebuild draws from. body is
// the publish's 'p' WAL body, kept for the next checkpoint. Shared by
// the live put path and WAL replay. Caller holds n.mu (or is in
// single-threaded recovery).
func (n *Node) applyOwnPublishLocked(seq uint64, id provenance.ID, rec *provenance.Record, body []byte) *siteview.Delta {
	n.store.Add(id, rec)
	attrs := arch.QueriableAttrs(rec)
	keys := make([]string, len(attrs))
	for i, a := range attrs {
		keys[i] = mkOf(a)
	}
	d := siteview.NewDelta(netsim.SiteID(n.cfg.ID), seq, []provenance.ID{id}, keys)
	applied := n.view.Apply(d)
	if seq > n.seq {
		n.seq = seq
	}
	n.own[seq] = d
	if n.cfg.DataDir != "" {
		n.pend.pubs = append(n.pend.pubs, body)
		if applied {
			n.pend.deltas = append(n.pend.deltas, d)
		}
	}
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
// (roster, acks, placements) that apply first and leave a superset when
// the append fails. Crossing the checkpoint threshold checkpoints
// inline, after apply so the pending lists hold the mutation whose
// record the reset drops; a failed checkpoint is counted but returns
// nil, because the record itself is already in the log.
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

// Compact appends a checkpoint of what the node applied since the last
// one and truncates the WAL. No-op without a data dir.
func (n *Node) Compact() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.compactLocked()
}

// compactLocked appends and syncs one checkpoint, then resets the WAL.
// When the append or its sync fails, the pending lists and the WAL stay
// as they are, so the next checkpoint covers the same ground.
func (n *Node) compactLocked() error {
	if n.log == nil {
		return nil
	}
	c := []byte{n.cfg.Mode[0]}
	if len(n.order) > 0 {
		roster := make([]Peer, 0, len(n.order))
		for _, pid := range n.order {
			roster = append(roster, Peer{ID: pid, Addr: n.peers[pid].String()})
		}
		b, err := json.Marshal(roster)
		if err != nil {
			return fmt.Errorf("node: encode roster: %w", err)
		}
		c = appendPart(c, 'r', b)
	}
	for _, l := range n.pend.lists {
		c = appendPart(c, 's', l)
	}
	if n.cfg.Mode == "passnet" {
		pids := make([]int32, 0, len(n.acked))
		for pid := range n.acked {
			pids = append(pids, pid)
		}
		sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
		for _, pid := range pids {
			var a [12]byte
			binary.LittleEndian.PutUint32(a[:4], uint32(pid))
			binary.LittleEndian.PutUint64(a[4:], n.acked[pid])
			c = appendPart(c, 'a', a[:])
		}
		c = appendPart(c, 'n', binary.LittleEndian.AppendUint64(nil, n.seq))
		n.pruneOwnLocked()
		own := make([]*siteview.Delta, 0, len(n.own))
		for _, d := range n.own {
			own = append(own, d)
		}
		sort.Slice(own, func(i, j int) bool { return own[i].Seq < own[j].Seq })
		c = appendPart(c, 'o', appendDeltas(nil, n.cfg.ID, own))
		for _, pub := range n.pend.pubs {
			c = appendPart(c, 'p', pub)
		}
		if n.pend.wholeView {
			v, _ := n.view.Encode()
			c = appendPart(c, 'v', v)
		} else if len(n.pend.deltas) > 0 {
			c = appendPart(c, 'v', siteview.EncodeDeltas(n.view.Owner(), n.pend.deltas))
		}
	}
	if err := n.ckpt.Append(c); err != nil {
		return err
	}
	if err := n.ckpt.Sync(); err != nil {
		return err
	}
	n.pend = pending{}
	// Crash window: checkpoint synced, WAL not yet reset — replay over
	// the checkpoints is idempotent by construction, so recovery still
	// lands on the same state.
	if err := n.log.Reset(); err != nil {
		return err
	}
	n.reg.Counter("pass_wal_truncations_total").Inc()
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
			n.pend.wholeView = true
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
				_ = n.storeBatch(chunk, nil) // the checkpoint below holds it anyway
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
