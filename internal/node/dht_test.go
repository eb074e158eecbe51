package node

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pass/internal/arch"
	"pass/internal/arch/siteview"
	"pass/internal/netsim"
	"pass/internal/provenance"
	"pass/internal/wire"
)

// seatsOf returns the live successor seats of a key on n's ring.
func seatsOf(n *Node, key []byte) []int32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.liveSuccessors(ringPosBytes(key), 1+replicaFanout)
}

// clusterStats returns every node's status, in node order.
func clusterStats(t *testing.T, c *Client, nodes []*Node) []Status {
	t.Helper()
	out := make([]Status, len(nodes))
	for i, nd := range nodes {
		st, err := c.Stat(nd.Addr())
		if err != nil {
			t.Fatalf("stat node %d: %v", i, err)
		}
		out[i] = st
	}
	return out
}

// holdsPosting reports whether n holds a posting of id under mk in the
// bucket a placement from src with the given role lands in.
func holdsPosting(n *Node, mk string, src int32, replica bool, id provenance.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := n.attrs[mk]
	if replica {
		ids = n.replAttrs[src][mk]
	}
	for _, got := range ids {
		if got == id {
			return true
		}
	}
	return false
}

func holdsRecord(n *Node, id provenance.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.store.Get(id)
	return ok
}

// TestDHTPutOneFramePerSeat pins the placement-list put: on a 3-seat
// ring every seat holds the record, so one put is exactly one WAL record
// per node and one inbound TStore frame per peer — and it is settled
// when it returns, answerable from every node.
func TestDHTPutOneFramePerSeat(t *testing.T) {
	nodes, _, _, c := bootDurableCluster(t, "dht", 3, 0)
	rec := testRecord(t, 1, "frame-per-seat")
	before := clusterStats(t, c, nodes)
	id, err := c.Put(nodes[0].Addr(), rec)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	after := clusterStats(t, c, nodes)
	var walRecords, frames int64
	for i := range nodes {
		walRecords += after[i].WalRecords - before[i].WalRecords
		if i > 0 {
			frames += after[i].MsgsIn - before[i].MsgsIn - 1 // less the second TStat
		}
	}
	if walRecords != 3 {
		t.Errorf("one put added %d WAL records cluster-wide, want 3", walRecords)
	}
	if frames > 2 {
		t.Errorf("one put sent %d frames to the peers, want at most 2", frames)
	}
	for _, nd := range nodes {
		got, err := c.Get(nd.Addr(), id)
		if err != nil || got.ComputeID() != id {
			t.Fatalf("get via node %d right after the put: %v", nd.cfg.ID, err)
		}
		for _, a := range arch.QueriableAttrs(rec) {
			ids, err := c.QueryAttr(nd.Addr(), a.Key, a.Value)
			if err != nil {
				t.Fatalf("query %s via node %d: %v", a.Key, nd.cfg.ID, err)
			}
			if !containsID(ids, id) {
				t.Errorf("query %s via node %d misses the record right after the put", a.Key, nd.cfg.ID)
			}
		}
	}
}

func containsID(ids []provenance.ID, id provenance.ID) bool {
	for _, got := range ids {
		if got == id {
			return true
		}
	}
	return false
}

// cutFrom makes node `on` drop every datagram from node `from`.
func cutFrom(t *testing.T, c *Client, on *Node, from int32) {
	t.Helper()
	if err := c.SetDrops(on.Addr(), []DropRule{{From: from, Rate: 1, Seed: 5}}); err != nil {
		t.Fatal(err)
	}
}

// TestDHTPutReplicaSeatCut: a replica seat that cannot be reached costs
// the put nothing but that seat's placements; the primary record and
// every posting on a reachable seat land.
func TestDHTPutReplicaSeatCut(t *testing.T) {
	nodes, _, _, c := bootDurableCluster(t, "dht", 3, 0)
	rec := testRecord(t, 2, "replica-cut")
	id := rec.ComputeID()
	recSeats := seatsOf(nodes[0], id[:])
	entry, cut := nodes[recSeats[0]], recSeats[1]
	cutFrom(t, c, nodes[cut], entry.cfg.ID)
	if _, err := c.Put(entry.Addr(), rec); err != nil {
		t.Fatalf("put with a replica seat cut off: %v", err)
	}
	if !holdsRecord(entry, id) {
		t.Fatal("primary seat lacks the record")
	}
	if holdsRecord(nodes[cut], id) {
		t.Fatal("cut-off seat got the record anyway")
	}
	for _, a := range arch.QueriableAttrs(rec) {
		mk := mkOf(a)
		seats := seatsOf(entry, []byte(mk))
		for i, seat := range seats {
			if seat == cut {
				continue
			}
			if !holdsPosting(nodes[seat], mk, seats[0], i > 0, id) {
				t.Errorf("live seat %d lacks the %s posting", seat, a.Key)
			}
		}
	}
}

// TestDHTPutPrimaryCut: with the record's primary unreachable the put
// fails after the retry down the live list. The seats were sent in
// parallel, so the reachable replica seats keep their copies and the
// nacked record stays readable — the documented at-least-once outcome.
func TestDHTPutPrimaryCut(t *testing.T) {
	nodes, _, _, c := bootDurableCluster(t, "dht", 3, 0)
	rec := testRecord(t, 3, "primary-cut")
	id := rec.ComputeID()
	recSeats := seatsOf(nodes[0], id[:])
	entry := nodes[recSeats[1]]
	cutFrom(t, c, nodes[recSeats[0]], entry.cfg.ID)
	if _, err := c.Put(entry.Addr(), rec); err == nil {
		t.Fatal("put acked with its primary seat cut off")
	}
	if holdsRecord(nodes[recSeats[0]], id) {
		t.Fatal("cut-off primary got the record anyway")
	}
	for _, seat := range recSeats[1:] {
		nodes[seat].mu.Lock()
		rs := nodes[seat].replRecs[recSeats[0]]
		ok := rs != nil
		if ok {
			_, ok = rs.Get(id)
		}
		nodes[seat].mu.Unlock()
		if !ok {
			t.Errorf("reachable replica seat %d lacks its copy", seat)
		}
	}
	if got, err := c.Get(entry.Addr(), id); err != nil || got.ComputeID() != id {
		t.Fatalf("nacked record not readable from its replicas: %v", err)
	}
}

// dhtState renders a dht node's placements canonically: primary and
// replica records, primary and replica postings.
func dhtState(n *Node) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var lines []string
	ids := func(s []provenance.ID) string {
		var hs []string
		for _, id := range dedupe(append([]provenance.ID(nil), s...)) {
			hs = append(hs, id.Short())
		}
		sort.Strings(hs)
		return strings.Join(hs, ",")
	}
	lines = append(lines, "rec "+ids(n.store.IDs()))
	for src, rs := range n.replRecs {
		lines = append(lines, fmt.Sprintf("rrec %d %s", src, ids(rs.IDs())))
	}
	for mk, s := range n.attrs {
		lines = append(lines, fmt.Sprintf("attr %q %s", mk, ids(s)))
	}
	for src, bucket := range n.replAttrs {
		for mk, s := range bucket {
			lines = append(lines, fmt.Sprintf("rattr %d %q %s", src, mk, ids(s)))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestDHTReplayBatchedAndLegacyStore: placement lists logged by a put
// and a single-object JSON placement logged through TStore both replay
// to the state the nodes held before the restart.
func TestDHTReplayBatchedAndLegacyStore(t *testing.T) {
	nodes, cfgs, _, c := bootDurableCluster(t, "dht", 3, 0)
	if _, err := c.Put(nodes[0].Addr(), testRecord(t, 4, "replay")); err != nil {
		t.Fatalf("put: %v", err)
	}
	legacy := testRecord(t, 5, "replay")
	lid := legacy.ComputeID()
	ep, err := wire.NewEndpoint(300, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	for _, m := range []legacyStore{
		{Kind: "rec", Src: 1, Rec: legacy.Encode()},
		{Kind: "attr", Replica: true, Src: 2, MK: []byte(mkOf(legacy.Attributes[0])), ID: lid},
	} {
		b, _ := json.Marshal(m)
		if _, err := ep.Request(nodes[1].Addr(), wire.TStore, b); err != nil {
			t.Fatalf("legacy TStore: %v", err)
		}
	}
	want := make([]string, len(nodes))
	for i, nd := range nodes {
		want[i] = dhtState(nd)
		nd.Close()
	}
	if !strings.Contains(want[1], lid.Short()) {
		t.Fatal("legacy placements never applied")
	}
	for i, cfg := range cfgs {
		back := restartNode(t, cfg)
		if got := dhtState(back); got != want[i] {
			t.Errorf("node %d replayed to\n%s\nwant\n%s", i, got, want[i])
		}
	}
}

// TestWALFailureNacks: a mutation that did not reach the log is not
// acknowledged — a dht put and a passnet put both answer TErr — and the
// failure is counted.
func TestWALFailureNacks(t *testing.T) {
	for _, mode := range []string{"dht", "passnet"} {
		t.Run(mode, func(t *testing.T) {
			nodes, _, _, c := bootDurableCluster(t, mode, 1, 0)
			nd := nodes[0]
			nd.mu.Lock()
			nd.log.Close()
			nd.mu.Unlock()
			errs := nd.reg.Counter("pass_wal_errors_total").Value()
			rec := testRecord(t, 6, "nack")
			if _, err := c.Put(nd.Addr(), rec); err == nil {
				t.Fatal("put acked although its WAL append failed")
			}
			if nd.reg.Counter("pass_wal_errors_total").Value() == errs {
				t.Fatal("failed append not counted in pass_wal_errors_total")
			}
			if mode != "passnet" {
				return
			}
			// The publish the log lacks never went live: no sequence
			// number spent, nothing in the view or the outbox.
			nd.mu.Lock()
			seq, viewSeq := nd.seq, nd.view.Seq(netsim.SiteID(nd.cfg.ID))
			_, stored := nd.store.Get(rec.ComputeID())
			nd.mu.Unlock()
			if seq != 0 || viewSeq != 0 || stored {
				t.Fatalf("nacked publish went live: seq %d, view seq %d, stored %v", seq, viewSeq, stored)
			}
			// A gossiped delta the log could not take is nacked and leaves
			// the view where it was, so the retransmit is applied, not
			// acked as already seen.
			b := appendDeltas(nil, 7, []*siteview.Delta{siteview.NewDelta(7, 1, []provenance.ID{{}}, []string{"k"})})
			var got wire.Type
			nd.handleDelta(b, func(ty wire.Type, _ []byte) { got = ty })
			nd.mu.Lock()
			originSeq := nd.view.Seq(7)
			nd.mu.Unlock()
			if got != wire.TErr || originSeq != 0 {
				t.Fatalf("delta with a failed append: reply %v, view seq %d; want TErr and 0", got, originSeq)
			}
		})
	}
}
