// Package node is a real PASS node: the state and verb handlers behind
// `passd node`. One process holds one Node; the cluster harness (or any
// wire client) drives it over UDP with the envelope types in
// internal/wire — TPut/TGet/TQuery for data, TTick/TDrop/TStat/TPeers
// for control — while nodes talk to each other with the inter-node
// verbs (TDelta for passnet gossip, TStore/TAttrQ/TFetch/TPing for DHT
// placement, probing and fetch).
//
// Two modes mirror the two socket-capable architectures:
//
//   - "passnet": the node keeps a local store plus its own
//     siteview.View; each publish cuts one delta into every peer's
//     outbox, and each TTick sends every peer its whole outbox as one
//     binary delta frame, in strict per-origin sequence (the passnet
//     model's outbox discipline; gossip.go has the frame). Queries union
//     the local postings with TAttrQ calls to the view's candidate
//     peers.
//   - "dht": node IDs hash onto the same ring as the dht model
//     (identical position formula), records and attribute postings are
//     placed at the first three live successors of their hash (one
//     primary + two replicas, the model's SuccessorListLen/
//     ReplicaFanout shape), and queries fall along the successor list —
//     so a SIGKILLed node's keys stay answerable from replicas, the
//     real-process analogue of experiment E16.
//
// Peer rosters arrive AFTER boot via TPeers: every node binds an
// ephemeral port, prints it, and the harness distributes the collected
// roster — no port preallocation races.
package node

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pass/internal/arch"
	"pass/internal/arch/siteview"
	"pass/internal/metrics"
	"pass/internal/netsim"
	"pass/internal/provenance"
	"pass/internal/wal"
	"pass/internal/wire"
)

// sendRetries is the retransmission budget for inter-node requests,
// matching the models' arch.SendRetries convention: one send plus up to
// three retransmissions. The cross-check depends on this parity — with
// a thinner budget the real side misdeclares lossy peers dead and
// diverges from the netsim rows.
const sendRetries = 3

// Config parameterises one node.
type Config struct {
	ID     int32  // dense node ID; doubles as the wire From and the ring seat
	Mode   string // "passnet" or "dht"
	Listen string // UDP listen address ("127.0.0.1:0" for ephemeral)

	// DataDir, when set, makes the node durable: every applied mutation
	// is WAL-appended before acknowledgment and periodically checkpointed
	// into an append-only checkpoint log, and a restart recovers from
	// both (see durable.go).
	DataDir string
	// Fsync syncs the WAL on every append — durability against machine
	// crash, not just process death, at a large latency cost.
	Fsync bool
	// CompactEvery is the WAL record count that triggers a checkpoint
	// (defaultCompactEvery when zero).
	CompactEvery int64
}

// Peer is one roster entry, as distributed via TPeers.
type Peer struct {
	ID   int32  `json:"id"`
	Addr string `json:"addr"`
}

// DropRule is one TDrop entry: ingress datagrams from peer From are
// dropped with probability Rate (seeded). Rate 1 is a partition edge.
type DropRule struct {
	From int32   `json:"from"`
	Rate float64 `json:"rate"`
	Seed uint64  `json:"seed"`
}

// Status is the TStat response.
type Status struct {
	ID       int32  `json:"id"`
	Mode     string `json:"mode"`
	Records  int    `json:"records"`
	Peers    int    `json:"peers"`
	Alive    int    `json:"alive"` // dht: peers believed live (incl. self)
	Seq      uint64 `json:"seq"`   // passnet: own delta sequence
	MsgsIn   int64  `json:"msgs_in"`
	MsgsOut  int64  `json:"msgs_out"`
	BytesIn  int64  `json:"bytes_in"`
	BytesOut int64  `json:"bytes_out"`
	Dropped  int64  `json:"dropped"`

	// Durability (zero-valued without a data dir).
	Recovered  bool  `json:"recovered,omitempty"`   // boot restored state from disk
	CatchingUp bool  `json:"catching_up,omitempty"` // declared degraded mode until first pull
	WalRecords int64 `json:"wal_records,omitempty"`
	WalBytes   int64 `json:"wal_bytes,omitempty"`
}

// Node is one running PASS node.
type Node struct {
	cfg Config
	ep  *wire.Endpoint
	reg *metrics.Registry

	mu    sync.Mutex
	peers map[int32]*net.UDPAddr
	order []int32 // sorted peer IDs

	// passnet state. store is shared with dht (its primary records); in
	// passnet mode it holds only the node's own publishes, and its
	// attribute index is the node's local postings.
	store  *arch.SiteStore
	view   *siteview.View
	seq    uint64
	outbox map[int32][]*siteview.Delta

	// durability state (durable.go); log and ckpt are nil without a
	// data dir.
	log       *wal.Log
	ckpt      *wal.Log                   // the checkpoint log
	pend      pending                    // applied since the last checkpoint
	acked     map[int32]uint64           // per-peer highest own seq acknowledged
	own       map[uint64]*siteview.Delta // retained own deltas (outbox rebuild window)
	recovered bool                       // state came back from disk at boot
	catchup   bool                       // cold boot: pull state at first tick

	// dht state (see dht.go).
	ring      []ringSeat
	alive     map[int32]bool
	attrs     map[string][]provenance.ID
	replAttrs map[int32]map[string][]provenance.ID
	replRecs  map[int32]*arch.SiteStore
}

// New binds the node's UDP endpoint and installs its verb handlers.
func New(cfg Config) (*Node, error) {
	if cfg.Mode != "passnet" && cfg.Mode != "dht" {
		return nil, fmt.Errorf("node: unknown mode %q", cfg.Mode)
	}
	ep, err := wire.NewEndpoint(cfg.ID, cfg.Listen)
	if err != nil {
		return nil, err
	}
	// Inter-node requests ride loopback or LAN; a tight per-attempt
	// deadline keeps ticks against dead or lossy peers from crawling.
	ep.Timeout = 120 * time.Millisecond
	n := &Node{
		cfg:       cfg,
		ep:        ep,
		reg:       metrics.NewRegistry(),
		peers:     make(map[int32]*net.UDPAddr),
		store:     arch.NewSiteStore(),
		view:      siteview.NewView(netsim.SiteID(cfg.ID)),
		outbox:    make(map[int32][]*siteview.Delta),
		acked:     make(map[int32]uint64),
		own:       make(map[uint64]*siteview.Delta),
		alive:     make(map[int32]bool),
		attrs:     make(map[string][]provenance.ID),
		replAttrs: make(map[int32]map[string][]provenance.ID),
		replRecs:  make(map[int32]*arch.SiteStore),
	}
	// Recovery runs BEFORE the handler is installed: the node state the
	// first verb sees is already the replayed one.
	if cfg.DataDir != "" {
		if err := n.recoverData(); err != nil {
			ep.Close()
			return nil, err
		}
	}
	ep.Handle(n.handle)
	return n, nil
}

// Recovered reports whether boot restored state from the data dir.
func (n *Node) Recovered() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.recovered
}

// Addr returns the node's bound UDP address.
func (n *Node) Addr() *net.UDPAddr { return n.ep.Addr() }

// Registry exposes the node's metrics registry (passd serves it).
func (n *Node) Registry() *metrics.Registry { return n.reg }

// Close shuts the node's socket down and syncs and closes its logs.
func (n *Node) Close() {
	n.ep.Close()
	n.mu.Lock()
	if n.log != nil {
		n.log.Close()
		n.ckpt.Close()
	}
	n.mu.Unlock()
}

// SyncMetrics refreshes the registry gauges from live node state; the
// HTTP /metrics handler calls it before exposition.
func (n *Node) SyncMetrics() {
	in, out, bin, bout := n.ep.Stats()
	n.reg.Gauge("pass_node_msgs_in").Set(in)
	n.reg.Gauge("pass_node_msgs_out").Set(out)
	n.reg.Gauge("pass_node_bytes_in").Set(bin)
	n.reg.Gauge("pass_node_bytes_out").Set(bout)
	n.reg.Gauge("pass_node_dropped").Set(n.ep.Dropped())
	n.mu.Lock()
	n.reg.Gauge("pass_node_records").Set(int64(n.store.Len()))
	n.reg.Gauge("pass_node_peers").Set(int64(len(n.peers)))
	if n.catchup {
		n.reg.Gauge("pass_node_catching_up").Set(1)
	} else {
		n.reg.Gauge("pass_node_catching_up").Set(0)
	}
	if n.log != nil {
		n.reg.Gauge("pass_wal_live_records").Set(n.log.Count())
		n.reg.Gauge("pass_wal_live_bytes").Set(n.log.Size())
	}
	n.mu.Unlock()
}

// handle dispatches one inbound verb. It runs on a fresh goroutine per
// message (the endpoint guarantees that), so slow verbs — a TTick that
// gossips to every peer — never stall ingestion.
func (n *Node) handle(env wire.Envelope, from *net.UDPAddr, reply func(wire.Type, []byte)) {
	switch env.Type {
	case wire.TPeers:
		n.handlePeers(env.Payload, reply)
	case wire.TDrop:
		n.handleDrop(env.Payload, reply)
	case wire.TStat:
		n.handleStat(reply)
	case wire.TPing:
		reply(wire.TPong, nil)
	case wire.TPut:
		n.handlePut(env.Payload, reply)
	case wire.TGet:
		n.handleGet(env.Payload, reply)
	case wire.TQuery:
		n.handleQuery(env.Payload, reply)
	case wire.TFetch:
		n.handleFetch(env.Payload, reply)
	case wire.TAttrQ:
		n.handleAttrQ(env.Payload, reply)
	case wire.TTick:
		n.handleTick(reply)
	case wire.TDelta:
		n.handleDelta(env.Payload, reply)
	case wire.TStore:
		n.handleStore(env.Payload, reply)
	case wire.TSnap:
		n.handleSnap(reply)
	case wire.TRecover:
		n.handleRecover(env.Payload, reply)
	default:
		reply(wire.TErr, []byte(fmt.Sprintf("unknown verb %d", env.Type)))
	}
}

// ---- control plane ----

func (n *Node) handlePeers(payload []byte, reply func(wire.Type, []byte)) {
	var roster []Peer
	if err := json.Unmarshal(payload, &roster); err != nil {
		reply(wire.TErr, []byte(err.Error()))
		return
	}
	n.mu.Lock()
	err := n.setRosterLocked(roster)
	if err == nil {
		err = n.walAppend('r', payload, nil)
	}
	n.mu.Unlock()
	if err != nil {
		reply(wire.TErr, []byte(err.Error()))
		return
	}
	reply(wire.TPeersOK, nil)
}

// setRosterLocked installs a peer roster — the shared body of the TPeers
// verb and the durable recovery paths ('r' WAL records, checkpoints).
// Caller holds n.mu (or is in single-threaded recovery).
func (n *Node) setRosterLocked(roster []Peer) error {
	n.peers = make(map[int32]*net.UDPAddr, len(roster))
	n.order = n.order[:0]
	for _, p := range roster {
		if p.ID == n.cfg.ID {
			continue
		}
		addr, err := net.ResolveUDPAddr("udp", p.Addr)
		if err != nil {
			return err
		}
		n.peers[p.ID] = addr
		n.order = append(n.order, p.ID)
	}
	sort.Slice(n.order, func(i, j int) bool { return n.order[i] < n.order[j] })
	if n.cfg.Mode == "dht" {
		n.rebuildRing()
	}
	return nil
}

func (n *Node) handleDrop(payload []byte, reply func(wire.Type, []byte)) {
	var rules []DropRule
	if err := json.Unmarshal(payload, &rules); err != nil {
		reply(wire.TErr, []byte(err.Error()))
		return
	}
	for _, r := range rules {
		n.ep.SetDrop(r.From, r.Rate, r.Seed)
	}
	reply(wire.TDropOK, nil)
}

func (n *Node) handleStat(reply func(wire.Type, []byte)) {
	in, out, bin, bout := n.ep.Stats()
	n.mu.Lock()
	st := Status{
		ID: n.cfg.ID, Mode: n.cfg.Mode,
		Records: n.store.Len(), Peers: len(n.peers),
		Seq: n.seq, MsgsIn: in, MsgsOut: out,
		BytesIn: bin, BytesOut: bout, Dropped: n.ep.Dropped(),
		Recovered: n.recovered, CatchingUp: n.catchup,
	}
	if n.log != nil {
		st.WalRecords = n.log.Count()
		st.WalBytes = n.log.Size()
	}
	if n.cfg.Mode == "dht" {
		st.Alive = 1 // self
		for _, up := range n.alive {
			if up {
				st.Alive++
			}
		}
	}
	n.mu.Unlock()
	b, _ := json.Marshal(st)
	reply(wire.TStatOK, b)
}

// ---- shared data-plane helpers ----

// mkOf builds the composite attribute-index key passnet and dht use
// everywhere — the store's own key, so passnet postings are its index.
func mkOf(a provenance.Attribute) string { return arch.AttrKey(a.Key, a.Value) }

// idsPayload flattens record IDs for a TQueryOK/TAttrQOK payload.
func idsPayload(ids []provenance.ID) []byte {
	out := make([]byte, 0, len(ids)*32)
	for _, id := range ids {
		out = append(out, id[:]...)
	}
	return out
}

// ParseIDs decodes a TQueryOK/TAttrQOK payload back into record IDs.
func ParseIDs(payload []byte) []provenance.ID {
	ids := make([]provenance.ID, 0, len(payload)/32)
	for i := 0; i+32 <= len(payload); i += 32 {
		var id provenance.ID
		copy(id[:], payload[i:i+32])
		ids = append(ids, id)
	}
	return ids
}

// dedupe removes duplicate IDs preserving first-seen order.
func dedupe(ids []provenance.ID) []provenance.ID {
	seen := make(map[provenance.ID]struct{}, len(ids))
	out := ids[:0:0]
	for _, id := range ids {
		if _, ok := seen[id]; ok {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// ---- data plane: verb entry points dispatch by mode ----

func (n *Node) handlePut(payload []byte, reply func(wire.Type, []byte)) {
	rec, err := provenance.Decode(payload)
	if err != nil {
		reply(wire.TErr, []byte(err.Error()))
		return
	}
	id := rec.ComputeID()
	if n.cfg.Mode == "dht" {
		n.dhtPut(id, rec, payload, reply)
		return
	}
	n.passnetPut(id, rec, reply)
}

func (n *Node) handleGet(payload []byte, reply func(wire.Type, []byte)) {
	if len(payload) != 32 {
		reply(wire.TErr, []byte("get: want 32-byte ID"))
		return
	}
	var id provenance.ID
	copy(id[:], payload)
	if n.cfg.Mode == "dht" {
		n.dhtGet(id, reply)
		return
	}
	n.passnetGet(id, reply)
}

func (n *Node) handleQuery(payload []byte, reply func(wire.Type, []byte)) {
	mk := string(payload)
	if n.cfg.Mode == "dht" {
		n.dhtQuery(mk, reply)
		return
	}
	n.passnetQuery(mk, reply)
}

func (n *Node) handleTick(reply func(wire.Type, []byte)) {
	// A cold-booted durable node pulls its state before doing round work.
	n.catchUpIfDue()
	if n.cfg.Mode == "dht" {
		n.dhtTick(reply)
		return
	}
	n.passnetTick(reply)
}

// handleFetch serves a record from the local store (and, for dht, the
// replica buckets) — the inter-node half of Get.
func (n *Node) handleFetch(payload []byte, reply func(wire.Type, []byte)) {
	if len(payload) != 32 {
		reply(wire.TErr, []byte("fetch: want 32-byte ID"))
		return
	}
	var id provenance.ID
	copy(id[:], payload)
	n.mu.Lock()
	rec, ok := n.store.Get(id)
	if !ok && n.cfg.Mode == "dht" {
		for _, rs := range n.replRecs {
			if rec, ok = rs.Get(id); ok {
				break
			}
		}
	}
	n.mu.Unlock()
	if !ok {
		reply(wire.TErr, []byte("fetch: not found"))
		return
	}
	reply(wire.TFetchOK, rec.Encode())
}

// handleAttrQ answers an attribute query from local state only: the
// node's own postings (passnet) or its primary+replica postings (dht).
func (n *Node) handleAttrQ(payload []byte, reply func(wire.Type, []byte)) {
	mk := string(payload)
	n.mu.Lock()
	var ids []provenance.ID
	if n.cfg.Mode == "dht" {
		ids = append(ids, n.attrs[mk]...)
		for _, bucket := range n.replAttrs {
			ids = append(ids, bucket[mk]...)
		}
	} else {
		ids = append(ids, n.store.LookupKey(mk)...)
	}
	n.mu.Unlock()
	reply(wire.TAttrQOK, idsPayload(dedupe(ids)))
}

// ---- passnet mode ----

// passnetPut commits locally, advances the node's own delta sequence,
// and enqueues the delta for every peer — the model's publish path with
// the gossip deferred to the next TTick.
func (n *Node) passnetPut(id provenance.ID, rec *provenance.Record, reply func(wire.Type, []byte)) {
	// Log before the ack: the durability contract is that an acknowledged
	// publish survives a crash at any later instant. Log before the
	// sequence advances, too: a publish the log lacks must not be
	// gossiped under a sequence number a restart would reuse.
	enc := rec.Encode()
	body := make([]byte, 8+len(enc))
	n.mu.Lock()
	seq := n.seq + 1
	binary.LittleEndian.PutUint64(body[:8], seq)
	copy(body[8:], enc)
	err := n.walAppend('p', body, func() {
		d := n.applyOwnPublishLocked(seq, id, rec, body)
		for _, pid := range n.order {
			n.outbox[pid] = append(n.outbox[pid], d)
		}
	})
	n.mu.Unlock()
	if err != nil {
		reply(wire.TErr, []byte(err.Error()))
		return
	}
	reply(wire.TPutOK, id[:])
}

// passnetTick sends each peer its whole pending outbox as one delta
// frame, with retries and no lock held. Puts keep appending while the
// frame is in flight, so an ack trims the outbox by sequence — only what
// the frame carried — and logs one 'a' record for the peer. An
// unreachable peer keeps its outbox for the next tick. Resending is safe:
// the peer skips the deltas it already has, and a frame is always the
// outbox's in-sequence prefix (siteview.Apply refuses gaps, so in-order
// delivery is correctness, not politeness). A frame past the datagram
// ceiling rides the stream framing.
func (n *Node) passnetTick(reply func(wire.Type, []byte)) {
	n.mu.Lock()
	order := append([]int32(nil), n.order...)
	n.mu.Unlock()
	for _, pid := range order {
		n.mu.Lock()
		pending := append([]*siteview.Delta(nil), n.outbox[pid]...)
		addr := n.peers[pid]
		n.mu.Unlock()
		if len(pending) == 0 {
			continue
		}
		frame := appendDeltas(nil, n.cfg.ID, pending)
		if _, err := n.ep.RequestRetry(addr, wire.TDelta, frame, sendRetries); err != nil {
			continue // peer unreachable this round; keep the outbox
		}
		last := pending[len(pending)-1].Seq
		n.mu.Lock()
		out := n.outbox[pid]
		k := 0
		for k < len(out) && out[k].Seq <= last {
			k++
		}
		n.outbox[pid] = out[k:]
		// The peer acknowledged through last; log the advance so a
		// restart does not re-gossip already-delivered deltas.
		n.advanceAckedLocked(pid, last)
		var body [12]byte
		binary.LittleEndian.PutUint32(body[:4], uint32(pid))
		binary.LittleEndian.PutUint64(body[4:12], last)
		// An unlogged advance only re-gossips the frame after a restart,
		// which the peer's sequence check absorbs.
		_ = n.walAppend('a', body[:], nil)
		n.mu.Unlock()
	}
	reply(wire.TTickOK, nil)
}

// handleDelta applies one gossiped delta frame to the node's view. Its
// stale deltas (already applied — the peer's ack was lost) are skipped,
// so a replayed frame is re-acknowledged and the sender can advance; a
// gap is an error, after the run before it has applied.
func (n *Node) handleDelta(payload []byte, reply func(wire.Type, []byte)) {
	ds, err := decodeDeltas(payload)
	if err != nil {
		reply(wire.TErr, []byte(err.Error()))
		return
	}
	n.mu.Lock()
	gap, err := n.applyDeltasLocked(payload, ds)
	if gap && n.log != nil {
		// A gap on a durable node means its view regressed past what this
		// peer still retains (a wiped restart whose catch-up pull missed
		// this origin). Re-arm the pull: the next tick merges snapshots
		// again, fast-forwarding past the gap.
		n.catchup = true
	}
	n.mu.Unlock()
	switch {
	case err != nil:
		reply(wire.TErr, []byte(err.Error()))
	case gap:
		reply(wire.TErr, []byte("delta: gap in sequence"))
	default:
		reply(wire.TDeltaAck, nil)
	}
}

// applyDeltasLocked applies the in-sequence run of a decoded delta frame
// — a TDelta payload or the body of a 'd' WAL record: its stale deltas
// are skipped, and a gap cuts it short and is reported. The run is
// logged as one 'd' record before the view moves: a nacked frame is
// retransmitted, and its deltas must then still be next in sequence
// rather than skipped as seen. WAL replay runs through here too (with no
// log open yet, walAppend only applies), so live apply and recovery
// cannot drift. Caller holds n.mu.
func (n *Node) applyDeltasLocked(frame []byte, ds []*siteview.Delta) (gap bool, err error) {
	if len(ds) == 0 {
		return false, nil
	}
	// ds is one origin's deltas in ascending sequence (decodeDeltas).
	next := n.view.Seq(ds[0].Origin) + 1
	i := 0
	for i < len(ds) && ds[i].Seq < next {
		i++
	}
	j := i
	for j < len(ds) && ds[j].Seq == next+uint64(j-i) {
		j++
	}
	run, gap := ds[i:j], j < len(ds)
	if len(run) == 0 {
		return gap, nil
	}
	body := frame
	if len(run) != len(ds) {
		body = appendDeltas(nil, int32(run[0].Origin), run)
	}
	return gap, n.walAppend('d', body, func() {
		for _, d := range run {
			if n.view.Apply(d) && n.cfg.DataDir != "" {
				n.pend.deltas = append(n.pend.deltas, d)
			}
		}
	})
}

// passnetGet serves locally, else locates the record's home through the
// view and fetches it over the wire.
func (n *Node) passnetGet(id provenance.ID, reply func(wire.Type, []byte)) {
	n.mu.Lock()
	rec, ok := n.store.Get(id)
	var home netsim.SiteID
	var homeKnown bool
	if !ok {
		home, homeKnown = n.view.Locate(id)
	}
	addr := n.peers[int32(home)]
	n.mu.Unlock()
	if ok {
		reply(wire.TGetOK, rec.Encode())
		return
	}
	if !homeKnown || addr == nil {
		reply(wire.TErr, []byte("get: unknown record"))
		return
	}
	resp, err := n.ep.RequestRetry(addr, wire.TFetch, id[:], sendRetries)
	if err != nil {
		reply(wire.TErr, []byte("get: home unreachable"))
		return
	}
	reply(wire.TGetOK, resp.Payload)
}

// passnetQuery unions the node's own postings with TAttrQ answers from
// every candidate peer the view names for the key — the model's
// QueryAttr over real sockets. Unreachable candidates contribute
// nothing, exactly like a crashed site in the simulation.
func (n *Node) passnetQuery(mk string, reply func(wire.Type, []byte)) {
	n.mu.Lock()
	ids := append([]provenance.ID(nil), n.store.LookupKey(mk)...)
	cands := n.view.CandidatesFor(mk)
	type target struct {
		id   int32
		addr *net.UDPAddr
	}
	var targets []target
	for _, c := range cands {
		if int32(c) == n.cfg.ID {
			continue
		}
		if addr, ok := n.peers[int32(c)]; ok {
			targets = append(targets, target{int32(c), addr})
		}
	}
	n.mu.Unlock()
	for _, tg := range targets {
		resp, err := n.ep.RequestRetry(tg.addr, wire.TAttrQ, []byte(mk), sendRetries)
		if err != nil {
			continue
		}
		ids = append(ids, ParseIDs(resp.Payload)...)
	}
	reply(wire.TQueryOK, idsPayload(dedupe(ids)))
}
