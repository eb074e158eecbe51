package node

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pass/internal/provenance"
	"pass/internal/wal"
)

// bootDurableCluster is bootCluster with a data dir per node. The
// returned configs have Listen pinned to the bound port, so a config can
// restart its node at the same identity: same ID, same port, same dir.
func bootDurableCluster(t *testing.T, mode string, n int, compactEvery int64) ([]*Node, []Config, []Peer, *Client) {
	t.Helper()
	nodes := make([]*Node, 0, n)
	cfgs := make([]Config, 0, n)
	roster := make([]Peer, 0, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			ID: int32(i), Mode: mode, Listen: "127.0.0.1:0",
			DataDir: t.TempDir(), CompactEvery: compactEvery,
		}
		nd, err := New(cfg)
		if err != nil {
			t.Fatalf("boot durable node %d: %v", i, err)
		}
		t.Cleanup(nd.Close)
		cfg.Listen = nd.Addr().String()
		nodes = append(nodes, nd)
		cfgs = append(cfgs, cfg)
		roster = append(roster, Peer{ID: int32(i), Addr: nd.Addr().String()})
	}
	c, err := NewClient(int32(n) + 200)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(c.Close)
	for _, nd := range nodes {
		if err := c.SetPeers(nd.Addr(), roster); err != nil {
			t.Fatalf("roster to node %d: %v", nd.cfg.ID, err)
		}
	}
	return nodes, cfgs, roster, c
}

// restartNode brings a node back at its previous identity (the config's
// pinned port and data dir). The caller must have Closed the old one.
func restartNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	nd, err := New(cfg)
	if err != nil {
		t.Fatalf("restart node %d: %v", cfg.ID, err)
	}
	t.Cleanup(nd.Close)
	return nd
}

func viewFP(n *Node) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.Fingerprint()
}

func storeLen(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store.Len()
}

// TestDurableRestartPassnet: a passnet node restarted from its data dir
// recovers its exact pre-kill state — same view fingerprint, same store
// — and serves full-recall queries immediately, no catch-up round.
func TestDurableRestartPassnet(t *testing.T) {
	nodes, cfgs, _, c := bootDurableCluster(t, "passnet", 3, 0)
	acked := make(map[provenance.ID]bool)
	for i := 0; i < 9; i++ {
		id, err := c.Put(nodes[i%3].Addr(), testRecord(t, i, "durable"))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked[id] = true
	}
	tickAll(t, c, nodes)

	wantFP := viewFP(nodes[1])
	wantLen := storeLen(nodes[1])
	nodes[1].Close()

	nd := restartNode(t, cfgs[1])
	if !nd.Recovered() {
		t.Fatal("restart from intact data dir did not recover")
	}
	if got := viewFP(nd); got != wantFP {
		t.Fatalf("recovered view fingerprint %x, want %x", got, wantFP)
	}
	if got := storeLen(nd); got != wantLen {
		t.Fatalf("recovered store has %d records, want %d", got, wantLen)
	}
	if v := nd.reg.Counter("pass_wal_replays_total").Value(); v == 0 {
		t.Fatal("recovery replayed zero WAL records")
	}
	// Zero recovery rounds: full recall straight after boot, via the
	// restarted node and via peers querying its recovered postings.
	for _, at := range []*Node{nd, nodes[0], nodes[2]} {
		if r := queryRecall(t, c, at.Addr(), "durable", acked); r != 1.0 {
			t.Errorf("post-restart recall via node %d = %.3f, want 1.0", at.cfg.ID, r)
		}
	}
	// The restarted node keeps publishing: its recovered sequence must
	// continue where the dead incarnation stopped, not restart at 1.
	id, err := c.Put(nd.Addr(), testRecord(t, 100, "durable"))
	if err != nil {
		t.Fatalf("post-restart put: %v", err)
	}
	acked[id] = true
	tickAll(t, c, []*Node{nodes[0], nd, nodes[2]})
	if r := queryRecall(t, c, nodes[0].Addr(), "durable", acked); r != 1.0 {
		t.Fatalf("recall including post-restart publish = %.3f, want 1.0", r)
	}
}

// TestDurableRestartDHT: same contract for a dht seat — placements
// (primary and replica buckets, records and postings) all recover.
func TestDurableRestartDHT(t *testing.T) {
	nodes, cfgs, _, c := bootDurableCluster(t, "dht", 4, 0)
	acked := make(map[provenance.ID]bool)
	for i := 0; i < 16; i++ {
		id, err := c.Put(nodes[i%4].Addr(), testRecord(t, i, "durable-dht"))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked[id] = true
	}
	tickAll(t, c, nodes)

	wantLen := storeLen(nodes[2])
	nodes[2].Close()
	nd := restartNode(t, cfgs[2])
	if !nd.Recovered() {
		t.Fatal("restart from intact data dir did not recover")
	}
	if got := storeLen(nd); got != wantLen {
		t.Fatalf("recovered store has %d records, want %d", got, wantLen)
	}
	all := []*Node{nodes[0], nodes[1], nd, nodes[3]}
	for _, at := range all {
		if r := queryRecall(t, c, at.Addr(), "durable-dht", acked); r != 1.0 {
			t.Errorf("post-restart recall via node %d = %.3f, want 1.0", at.cfg.ID, r)
		}
	}
}

// putSolo publishes k records into a single-node durable cluster and
// returns the node, its restart config, and the client.
func putSolo(t *testing.T, k int, ce int64) (*Node, Config, *Client) {
	t.Helper()
	nodes, cfgs, _, c := bootDurableCluster(t, "passnet", 1, ce)
	for i := 0; i < k; i++ {
		if _, err := c.Put(nodes[0].Addr(), testRecord(t, i, "fault")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	return nodes[0], cfgs[0], c
}

// TestWALTornTailTolerated: a torn record (crash mid-append) at the WAL
// tail is truncated on recovery; everything before it survives.
func TestWALTornTailTolerated(t *testing.T) {
	nd, cfg, _ := putSolo(t, 5, 0)
	nd.Close()
	walPath := filepath.Join(cfg.DataDir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A record header promising 1000 bytes, followed by only 5: exactly
	// what a crash mid-append leaves behind.
	var torn [13]byte
	binary.LittleEndian.PutUint32(torn[0:4], 1000)
	binary.LittleEndian.PutUint32(torn[4:8], 0xDEADBEEF)
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	back := restartNode(t, cfg)
	if !back.Recovered() {
		t.Fatal("torn tail prevented recovery")
	}
	if got := storeLen(back); got != 5 {
		t.Fatalf("recovered %d records past a torn tail, want 5", got)
	}
}

// walRecordOffsets walks the WAL's record framing and returns each
// record's start offset.
func walRecordOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	off := int64(8)
	for off+8 <= int64(len(b)) {
		l := int64(binary.LittleEndian.Uint32(b[off : off+4]))
		if off+8+l > int64(len(b)) {
			break
		}
		offs = append(offs, off)
		off += 8 + l
	}
	return offs
}

// TestWALBitFlipDropsSuffix: a corrupt CRC mid-log stops replay at the
// flipped record — the valid prefix recovers, the poisoned suffix is
// discarded rather than applied wrong.
func TestWALBitFlipDropsSuffix(t *testing.T) {
	nd, cfg, _ := putSolo(t, 5, 0)
	nd.Close()
	walPath := filepath.Join(cfg.DataDir, "wal.log")
	offs := walRecordOffsets(t, walPath)
	if len(offs) < 2 {
		t.Fatalf("want >=2 wal records, have %d", len(offs))
	}
	last := offs[len(offs)-1]
	f, err := os.OpenFile(walPath, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the last record; its CRC no longer matches.
	if _, err := f.WriteAt([]byte{0xFF}, last+8+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	back := restartNode(t, cfg)
	if got := storeLen(back); got != 4 {
		t.Fatalf("recovered %d records past a bit flip, want 4 (prefix only)", got)
	}
}

// TestTornCheckpointDropsToWAL: a crash mid-append tears the last
// checkpoint record before it was synced, so the WAL was never reset;
// recovery drops the torn record and replays the whole WAL.
func TestTornCheckpointDropsToWAL(t *testing.T) {
	nd, cfg, _ := putSolo(t, 5, 0)
	walPath, snapPath := filepath.Join(cfg.DataDir, "wal.log"), filepath.Join(cfg.DataDir, "snap")
	preWal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	want := viewFP(nd)
	if err := nd.Compact(); err != nil {
		t.Fatal(err)
	}
	nd.Close()
	offs := walRecordOffsets(t, snapPath)
	if len(offs) != 1 {
		t.Fatalf("want 1 checkpoint record, have %d", len(offs))
	}
	if err := os.Truncate(snapPath, offs[0]+12); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, preWal, 0o644); err != nil {
		t.Fatal(err)
	}
	back := restartNode(t, cfg)
	if got := storeLen(back); got != 5 {
		t.Fatalf("recovered %d records past a torn checkpoint, want 5", got)
	}
	if got := viewFP(back); got != want {
		t.Fatalf("recovered fingerprint %x past a torn checkpoint, want %x", got, want)
	}
}

// TestParentSnapshotRefused: a whole-state JSON snapshot from before the
// checkpoint log is refused at boot, with an error naming the file.
func TestParentSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap")
	old := append([]byte("PASSSNP1\x00\x00\x00\x00"), `{"mode":"passnet"}`...)
	if err := os.WriteFile(snap, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{ID: 0, Mode: "passnet", Listen: "127.0.0.1:0", DataDir: dir})
	if !errors.Is(err, wal.ErrNotWAL) || !strings.Contains(err.Error(), snap) {
		t.Fatalf("boot over a JSON snapshot: err %v, want wal.ErrNotWAL naming %s", err, snap)
	}
}

// TestCheckpointCostsTheDelta: a checkpoint holds what changed since the
// last one, not the store, so with CompactEvery k the last checkpoint
// record after 40·k puts is at most twice the size of the first. Sizes
// are read from the file.
func TestCheckpointCostsTheDelta(t *testing.T) {
	const k = 16
	_, cfg, _ := putSolo(t, 40*k, k)
	var sizes []int
	if _, err := wal.Replay(filepath.Join(cfg.DataDir, "snap"), func(p []byte) error {
		sizes = append(sizes, len(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(sizes) < 30 {
		t.Fatalf("%d checkpoints after %d puts at CompactEvery %d", len(sizes), 40*k, k)
	}
	if first, last := sizes[0], sizes[len(sizes)-1]; last > 2*first {
		t.Fatalf("checkpoint grew from %d to %d bytes: it re-serialises the store", first, last)
	}
}

// TestCrashAfterRenameBeforeReset is the other checkpoint crash window:
// the checkpoint was synced but the WAL was not yet truncated, so
// recovery replays the full log ON TOP of the checkpoints. The replay
// must be idempotent — same fingerprint, no duplicated state.
func TestCrashAfterRenameBeforeReset(t *testing.T) {
	nd, cfg, _ := putSolo(t, 5, 0)
	walPath := filepath.Join(cfg.DataDir, "wal.log")
	preWal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Compact(); err != nil {
		t.Fatal(err)
	}
	want := viewFP(nd)
	nd.Close()
	// Undo the Reset: restore the pre-checkpoint log next to the fresh
	// checkpoint — exactly the crash-between-sync-and-reset state.
	if err := os.WriteFile(walPath, preWal, 0o644); err != nil {
		t.Fatal(err)
	}
	back := restartNode(t, cfg)
	if got := storeLen(back); got != 5 {
		t.Fatalf("checkpoint+full-log replay yielded %d records, want 5", got)
	}
	if got := viewFP(back); got != want {
		t.Fatalf("checkpoint+full-log replay fingerprint %x, want %x", got, want)
	}
}

// TestCompactionBoundsWAL: crossing the threshold checkpoints into the
// snapshot and truncates the log, so WAL size is bounded by activity
// since the last compaction, not by history.
func TestCompactionBoundsWAL(t *testing.T) {
	nd, cfg, _ := putSolo(t, 30, 8)
	nd.mu.Lock()
	c := nd.log.Count()
	nd.mu.Unlock()
	if c >= 8 {
		t.Fatalf("wal holds %d records, compaction at 8 never bounded it", c)
	}
	if nd.reg.Counter("pass_wal_truncations_total").Value() == 0 {
		t.Fatal("no compaction truncations counted")
	}
	if _, err := os.Stat(filepath.Join(cfg.DataDir, "snap")); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	want := viewFP(nd)
	nd.Close()
	back := restartNode(t, cfg)
	if got := storeLen(back); got != 30 {
		t.Fatalf("recovered %d records via snapshot+wal, want 30", got)
	}
	if got := viewFP(back); got != want {
		t.Fatalf("recovered fingerprint %x, want %x", got, want)
	}
}

// TestColdRejoinPassnetPullsView: a wiped passnet node boots in declared
// catch-up mode, pulls peer view snapshots at its first tick, and can
// both answer queries about surviving records and keep publishing (its
// own sequence fast-forwards past what peers saw from the dead
// incarnation). Records that lived only on the wiped disk are gone — by
// design; durability of those is exactly what the intact-dir path buys.
func TestColdRejoinPassnetPullsView(t *testing.T) {
	nodes, cfgs, roster, c := bootDurableCluster(t, "passnet", 3, 0)
	survivors := make(map[provenance.ID]bool)
	for i := 0; i < 9; i++ {
		id, err := c.Put(nodes[i%3].Addr(), testRecord(t, i, "rejoin"))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if i%3 != 2 {
			survivors[id] = true // records homed at the to-be-wiped node are lost with its disk
		}
	}
	tickAll(t, c, nodes)
	preSeq := func() uint64 {
		st, err := c.Stat(nodes[2].Addr())
		if err != nil {
			t.Fatal(err)
		}
		return st.Seq
	}()

	nodes[2].Close()
	if err := os.RemoveAll(cfgs[2].DataDir); err != nil {
		t.Fatal(err)
	}
	nd := restartNode(t, cfgs[2])
	if nd.Recovered() {
		t.Fatal("wiped node claims recovery")
	}
	st, err := c.Stat(nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !st.CatchingUp {
		t.Fatal("wiped node not in declared catch-up mode")
	}
	// A wiped node lost its roster too; the operator (harness) re-seeds it.
	if err := c.SetPeers(nd.Addr(), roster); err != nil {
		t.Fatal(err)
	}
	all := []*Node{nodes[0], nodes[1], nd}
	tickAll(t, c, all)
	if st, err = c.Stat(nd.Addr()); err != nil || st.CatchingUp {
		t.Fatalf("catch-up did not complete: err=%v stat=%+v", err, st)
	}
	// The pulled view locates every surviving record.
	if r := queryRecall(t, c, nd.Addr(), "rejoin", survivors); r != 1.0 {
		t.Fatalf("post-rejoin recall via wiped node = %.3f, want 1.0", r)
	}
	// And its sequence fast-forwarded: a fresh publish is not suppressed
	// by peers as an already-seen duplicate.
	if st.Seq < preSeq {
		t.Fatalf("rejoined seq %d regressed below pre-wipe %d", st.Seq, preSeq)
	}
	id, err := c.Put(nd.Addr(), testRecord(t, 200, "rejoin"))
	if err != nil {
		t.Fatal(err)
	}
	survivors[id] = true
	tickAll(t, c, all)
	for _, at := range all {
		if r := queryRecall(t, c, at.Addr(), "rejoin", survivors); r != 1.0 {
			t.Errorf("post-rejoin publish recall via node %d = %.3f, want 1.0", at.cfg.ID, r)
		}
	}
}

// TestColdRejoinDHTPullsPlacements: a wiped dht seat asks every peer for
// the placements its ring position should hold (TRecover) and recovers
// full coverage — records and attribute postings, primary and replica.
func TestColdRejoinDHTPullsPlacements(t *testing.T) {
	nodes, cfgs, roster, c := bootDurableCluster(t, "dht", 4, 0)
	acked := make(map[provenance.ID]bool)
	for i := 0; i < 16; i++ {
		id, err := c.Put(nodes[i%4].Addr(), testRecord(t, i, "rejoin-dht"))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked[id] = true
	}
	tickAll(t, c, nodes)

	nodes[1].Close()
	if err := os.RemoveAll(cfgs[1].DataDir); err != nil {
		t.Fatal(err)
	}
	nd := restartNode(t, cfgs[1])
	if nd.Recovered() {
		t.Fatal("wiped node claims recovery")
	}
	if err := c.SetPeers(nd.Addr(), roster); err != nil {
		t.Fatal(err)
	}
	all := []*Node{nodes[0], nd, nodes[2], nodes[3]}
	tickAll(t, c, all)
	if storeLen(nd) == 0 {
		t.Fatal("catch-up pulled no primary records onto the rejoined seat")
	}
	for _, at := range all {
		if r := queryRecall(t, c, at.Addr(), "rejoin-dht", acked); r != 1.0 {
			t.Errorf("post-rejoin recall via node %d = %.3f, want 1.0", at.cfg.ID, r)
		}
	}
	// The pulled placements are WAL-logged: a second (durable) restart
	// of the same seat recovers them from disk alone.
	prevLen := storeLen(nd)
	nd.Close()
	back := restartNode(t, cfgs[1])
	if !back.Recovered() {
		t.Fatal("post-catch-up restart did not recover from disk")
	}
	if got := storeLen(back); got != prevLen {
		t.Fatalf("second restart recovered %d records, want %d", got, prevLen)
	}
}

// TestIntAttrQueryThroughPeer: attribute keys are binary (an integer's
// canonical value is raw bytes), and must survive every path a key takes
// to a peer's view — the gossip frame, the snapshot a restart decodes,
// and the TSnap view a wiped node pulls — or a query through that peer
// misses the record. The origin restarts from a snapshot before it
// gossips, so the frames it sends are rebuilt from the snapshot's
// retained own deltas.
func TestIntAttrQueryThroughPeer(t *testing.T) {
	nodes, cfgs, roster, c := bootDurableCluster(t, "passnet", 3, 0)
	tickAll(t, c, nodes)
	values := []int64{1, 63, 64, 200, 1000, 70000}
	want := make(map[int64]provenance.ID)
	for _, v := range values {
		id, err := c.Put(nodes[0].Addr(), testRecord(t, int(v), "int-attr"))
		if err != nil {
			t.Fatalf("put n=%d: %v", v, err)
		}
		want[v] = id
	}
	check := func(stage string, at *Node) {
		t.Helper()
		var missed []int64
		for _, v := range values {
			ids, err := c.QueryAttr(at.Addr(), "n", provenance.Int64(v))
			if err != nil {
				t.Fatalf("%s: query n=%d: %v", stage, v, err)
			}
			if !containsID(ids, want[v]) {
				missed = append(missed, v)
			}
		}
		if len(missed) > 0 {
			t.Errorf("%s: query through node %d misses n=%v", stage, at.cfg.ID, missed)
		}
	}
	if err := nodes[0].Compact(); err != nil {
		t.Fatal(err)
	}
	nodes[0].Close()
	nodes[0] = restartNode(t, cfgs[0])
	tickAll(t, c, nodes)
	check("after gossip", nodes[1])

	if err := nodes[1].Compact(); err != nil {
		t.Fatal(err)
	}
	nodes[1].Close()
	nd := restartNode(t, cfgs[1])
	check("after a restart from a snapshot", nd)

	nd.Close()
	if err := os.RemoveAll(cfgs[1].DataDir); err != nil {
		t.Fatal(err)
	}
	nd = restartNode(t, cfgs[1])
	if err := c.SetPeers(nd.Addr(), roster); err != nil {
		t.Fatal(err)
	}
	tickAll(t, c, []*Node{nd}) // the catch-up pull over TSnap
	check("after a wiped rejoin", nd)
}

// TestDuplicatePutKeepsSequence: a record put twice spends two sequence
// numbers, and a restart must recover both. Were the second one lost,
// the next publish would reuse a sequence number the peers have already
// applied, and they would drop it as stale.
func TestDuplicatePutKeepsSequence(t *testing.T) {
	nodes, cfgs, _, c := bootDurableCluster(t, "passnet", 2, 0)
	tickAll(t, c, nodes)
	acked := make(map[provenance.ID]bool)
	rec := testRecord(t, 1, "dup")
	for i := 0; i < 2; i++ {
		id, err := c.Put(nodes[0].Addr(), rec)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked[id] = true
	}
	tickAll(t, c, nodes)
	nodes[0].Close()
	nodes[0] = restartNode(t, cfgs[0])
	if st, err := c.Stat(nodes[0].Addr()); err != nil || st.Seq != 2 {
		t.Fatalf("restarted origin: seq %d (err %v), want 2", st.Seq, err)
	}
	id, err := c.Put(nodes[0].Addr(), testRecord(t, 2, "dup"))
	if err != nil {
		t.Fatal(err)
	}
	acked[id] = true
	tickAll(t, c, nodes)
	if r := queryRecall(t, c, nodes[1].Addr(), "dup", acked); r != 1.0 {
		t.Fatalf("recall via the peer after the restart = %.3f, want 1.0", r)
	}
}

// TestIntAttrQueryThroughDHTRestart is TestIntAttrQueryThroughPeer for
// dht seats: postings under binary attribute keys must survive every
// seat's checkpoint and restart, or a query for the key misses.
func TestIntAttrQueryThroughDHTRestart(t *testing.T) {
	nodes, cfgs, _, c := bootDurableCluster(t, "dht", 3, 0)
	tickAll(t, c, nodes)
	values := []int64{1, 63, 64, 200, 1000, 70000}
	want := make(map[int64]provenance.ID)
	for _, v := range values {
		id, err := c.Put(nodes[0].Addr(), testRecord(t, int(v), "int-attr-dht"))
		if err != nil {
			t.Fatalf("put n=%d: %v", v, err)
		}
		want[v] = id
	}
	for i := range nodes {
		if err := nodes[i].Compact(); err != nil {
			t.Fatal(err)
		}
		nodes[i].Close()
		nodes[i] = restartNode(t, cfgs[i])
	}
	for _, at := range nodes {
		var missed []int64
		for _, v := range values {
			ids, err := c.QueryAttr(at.Addr(), "n", provenance.Int64(v))
			if err != nil {
				t.Fatalf("query n=%d via node %d: %v", v, at.cfg.ID, err)
			}
			if !containsID(ids, want[v]) {
				missed = append(missed, v)
			}
		}
		if len(missed) > 0 {
			t.Errorf("after every seat restarted: query through node %d misses n=%v", at.cfg.ID, missed)
		}
	}
}

// checkpointRecords returns checkpoint records of both modes, empty
// and with every part.
func checkpointRecords(t testing.TB) [][]byte {
	frames := deltaFrames(t)
	passnet := appendPart([]byte{'p'}, 'r', []byte(`[{"id":1,"addr":"127.0.0.1:9"}]`))
	passnet = appendPart(passnet, 'a', make([]byte, 12))
	passnet = appendPart(passnet, 'n', make([]byte, 8))
	passnet = appendPart(passnet, 'o', frames[2])
	passnet = appendPart(passnet, 'p', make([]byte, 9))
	passnet = appendPart(passnet, 'v', []byte{1, 2, 0, 0, 0})
	dht := []byte{'d'}
	for _, l := range putFrames(t, 3) {
		dht = appendPart(dht, 's', l)
	}
	return [][]byte{{'p'}, {'d'}, passnet, dht}
}

// FuzzLoadCheckpoint covers the checkpoint record decoder every boot
// runs over the checkpoint log. No input may panic, nothing is reserved
// by a length beyond what the record holds, and every record accepted
// re-encodes to exactly its input.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, r := range checkpointRecords(f) {
		f.Add(r)
		for _, cut := range []int{1, 2, 5, len(r) / 2, len(r) - 1} {
			if cut < len(r) {
				f.Add(r[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var parts [][]byte
		if err := decodeCheckpoint(b, func(part []byte) error {
			parts = append(parts, part)
			return nil
		}); err != nil {
			return
		}
		got := []byte{b[0]}
		for _, part := range parts {
			got = appendPart(got, part[0], part[1:])
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("accepted record does not round-trip:\n got %x\nwant %x", got, b)
		}
	})
}
