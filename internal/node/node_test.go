package node

import (
	"fmt"
	"net"
	"testing"
	"time"

	"pass/internal/provenance"
)

// bootCluster starts n in-process nodes of the given mode, distributes
// the roster, and returns them with a client. In-process here means the
// Node objects share this test binary, but every verb still crosses a
// real UDP socket.
func bootCluster(t *testing.T, mode string, n int) ([]*Node, *Client) {
	t.Helper()
	nodes := make([]*Node, 0, n)
	roster := make([]Peer, 0, n)
	for i := 0; i < n; i++ {
		nd, err := New(Config{ID: int32(i), Mode: mode, Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("boot node %d: %v", i, err)
		}
		t.Cleanup(nd.Close)
		nodes = append(nodes, nd)
		roster = append(roster, Peer{ID: int32(i), Addr: nd.Addr().String()})
	}
	c, err := NewClient(int32(n) + 100)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(c.Close)
	for _, nd := range nodes {
		if err := c.SetPeers(nd.Addr(), roster); err != nil {
			t.Fatalf("roster to node %d: %v", nd.cfg.ID, err)
		}
	}
	return nodes, c
}

func testRecord(t testing.TB, seq int, domain string) *provenance.Record {
	t.Helper()
	var digest [32]byte
	digest[0], digest[1] = byte(seq), byte(seq>>8)
	rec, _, err := provenance.NewRaw(digest, 64).
		Attrs(
			provenance.Attr("n", provenance.Int64(int64(seq))),
			provenance.Attr(provenance.KeyDomain, provenance.String(domain)),
		).
		CreatedAt(int64(seq) + 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func tickAll(t *testing.T, c *Client, nodes []*Node) {
	t.Helper()
	for _, nd := range nodes {
		if err := c.Tick(nd.Addr()); err != nil {
			t.Fatalf("tick node %d: %v", nd.cfg.ID, err)
		}
	}
}

func queryRecall(t *testing.T, c *Client, at *net.UDPAddr, domain string, want map[provenance.ID]bool) float64 {
	t.Helper()
	got, err := c.QueryAttr(at, provenance.KeyDomain, provenance.String(domain))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	hit := 0
	for _, id := range got {
		if want[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func testModePutTickQueryGet(t *testing.T, mode string) {
	nodes, c := bootCluster(t, mode, 4)
	const nPubs = 12
	domain := "t-" + mode
	acked := make(map[provenance.ID]bool, nPubs)
	var firstID provenance.ID
	for i := 0; i < nPubs; i++ {
		rec := testRecord(t, i, domain)
		id, err := c.Put(nodes[i%len(nodes)].Addr(), rec)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked[id] = true
		if i == 0 {
			firstID = id
		}
	}
	tickAll(t, c, nodes)
	// Query through EVERY node: after one gossip round (passnet) or by
	// ring placement (dht), each contact must reach the full set.
	for _, nd := range nodes {
		if r := queryRecall(t, c, nd.Addr(), domain, acked); r != 1.0 {
			t.Errorf("recall via node %d = %.3f, want 1.0", nd.cfg.ID, r)
		}
	}
	// Get from a node that did not originate the record.
	rec, err := c.Get(nodes[3].Addr(), firstID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got := rec.ComputeID(); got != firstID {
		t.Fatalf("get returned wrong record: %x != %x", got[:4], firstID[:4])
	}
	// Stat reflects the mode and some traffic.
	st, err := c.Stat(nodes[0].Addr())
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.Mode != mode || st.Peers != 3 || st.MsgsIn == 0 {
		t.Fatalf("stat = %+v", st)
	}
}

func TestPassnetPutTickQueryGet(t *testing.T) { testModePutTickQueryGet(t, "passnet") }
func TestDHTPutTickQueryGet(t *testing.T)     { testModePutTickQueryGet(t, "dht") }

// TestDHTSurvivesKilledNode is the in-process E16 analogue: publish
// through a 5-seat ring, hard-kill one node (socket closed, no
// goodbye), run a probe round, and require the remaining seats to
// recover full recall from replicas.
func TestDHTSurvivesKilledNode(t *testing.T) {
	nodes, c := bootCluster(t, "dht", 5)
	const nPubs = 20
	acked := make(map[provenance.ID]bool, nPubs)
	for i := 0; i < nPubs; i++ {
		id, err := c.Put(nodes[i%len(nodes)].Addr(), testRecord(t, i, "churn"))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked[id] = true
	}
	victim := nodes[2]
	victim.Close()
	tickAll(t, c, append(append([]*Node(nil), nodes[:2]...), nodes[3:]...))
	for _, nd := range nodes {
		if nd == victim {
			continue
		}
		if r := queryRecall(t, c, nd.Addr(), "churn", acked); r != 1.0 {
			t.Errorf("post-kill recall via node %d = %.3f, want 1.0 (replicas)", nd.cfg.ID, r)
		}
	}
}

// TestPassnetPartitionThenHeal drives the harness's partition primitive:
// rate-1 drop rules on both sides of a cut, verify the split is real,
// heal, and verify gossip converges again.
func TestPassnetPartitionThenHeal(t *testing.T) {
	nodes, c := bootCluster(t, "passnet", 3)
	// Cut node 2 off from 0 and 1 in both directions.
	cut := []DropRule{{From: 0, Rate: 1, Seed: 1}, {From: 1, Rate: 1, Seed: 2}}
	if err := c.SetDrops(nodes[2].Addr(), cut); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes[:2] {
		if err := c.SetDrops(nd.Addr(), []DropRule{{From: 2, Rate: 1, Seed: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	acked := make(map[provenance.ID]bool)
	for i := 0; i < 6; i++ {
		id, err := c.Put(nodes[i%2].Addr(), testRecord(t, i, "split"))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked[id] = true
	}
	tickAll(t, c, nodes)
	// The isolated node sees nothing (its own postings are empty and its
	// view never learned the others' deltas).
	if r := queryRecall(t, c, nodes[2].Addr(), "split", acked); r != 0 {
		t.Errorf("recall across partition = %.3f, want 0", r)
	}
	// Heal: clear every rule, gossip again (the majority side's outboxes
	// kept the undelivered deltas), and the view converges.
	for _, nd := range nodes {
		var clear []DropRule
		for id := int32(0); id < 3; id++ {
			clear = append(clear, DropRule{From: id, Rate: 0})
		}
		if err := c.SetDrops(nd.Addr(), clear); err != nil {
			t.Fatal(err)
		}
	}
	tickAll(t, c, nodes)
	if r := queryRecall(t, c, nodes[2].Addr(), "split", acked); r != 1.0 {
		t.Errorf("recall after heal = %.3f, want 1.0", r)
	}
}

// TestPassnetGossipIsInSequence pins the outbox discipline: deltas
// blocked by a dead peer are retained and delivered in order once the
// peer returns, never skipped (siteview refuses gaps).
func TestPassnetGossipIsInSequence(t *testing.T) {
	nodes, c := bootCluster(t, "passnet", 2)
	// Block 1's ingress from 0, publish twice at 0, tick (delivery
	// fails, outbox retains both, in order).
	if err := c.SetDrops(nodes[1].Addr(), []DropRule{{From: 0, Rate: 1, Seed: 9}}); err != nil {
		t.Fatal(err)
	}
	acked := make(map[provenance.ID]bool)
	for i := 0; i < 2; i++ {
		id, err := c.Put(nodes[0].Addr(), testRecord(t, i, "seq"))
		if err != nil {
			t.Fatal(err)
		}
		acked[id] = true
	}
	tickAll(t, c, nodes)
	if r := queryRecall(t, c, nodes[1].Addr(), "seq", acked); r != 0 {
		t.Fatalf("blocked peer learned deltas anyway (recall %.3f)", r)
	}
	if err := c.SetDrops(nodes[1].Addr(), []DropRule{{From: 0, Rate: 0}}); err != nil {
		t.Fatal(err)
	}
	tickAll(t, c, nodes)
	if r := queryRecall(t, c, nodes[1].Addr(), "seq", acked); r != 1.0 {
		t.Fatalf("recall after unblock = %.3f, want 1.0", r)
	}
	st, err := c.Stat(nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 2 {
		t.Fatalf("origin seq = %d, want 2", st.Seq)
	}
}

func TestClientPingAndBadMode(t *testing.T) {
	nodes, c := bootCluster(t, "dht", 1)
	if err := c.Ping(nodes[0].Addr()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if _, err := New(Config{ID: 9, Mode: "carrier-pigeon", Listen: "127.0.0.1:0"}); err == nil {
		t.Fatal("bad mode accepted")
	}
	// A dead address times out rather than hanging.
	dead, err := net.ResolveUDPAddr("udp", fmt.Sprintf("127.0.0.1:%d", 1))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Ping(dead); err == nil {
		t.Fatal("ping to dead address succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("ping timeout took too long")
	}
}
