package node

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"pass/internal/arch"
	"pass/internal/arch/siteview"
	"pass/internal/provenance"
)

// deltaFrames returns delta frames of every shape a node sends: empty,
// one delta, and a run whose deltas carry several IDs and binary keys.
func deltaFrames(t testing.TB) [][]byte {
	var ds []*siteview.Delta
	for i := 0; i < 3; i++ {
		var keys []string
		var ids []provenance.ID
		for j := 0; j <= i; j++ {
			rec := testRecord(t, 70000+10*i+j, "frame")
			ids = append(ids, rec.ComputeID())
			for _, a := range arch.QueriableAttrs(rec) {
				keys = append(keys, mkOf(a))
			}
		}
		ds = append(ds, siteview.NewDelta(4, uint64(5+i), ids, keys))
	}
	return [][]byte{appendDeltas(nil, 4, nil), appendDeltas(nil, 4, ds[:1]), appendDeltas(nil, 4, ds)}
}

func TestDeltaFrameRoundTrip(t *testing.T) {
	for _, f := range deltaFrames(t) {
		ds, err := decodeDeltas(f)
		if err != nil {
			t.Fatalf("decode own frame: %v", err)
		}
		if got := appendDeltas(nil, 4, ds); !bytes.Equal(got, f) {
			t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", got, f)
		}
	}
}

// TestDeltaLegacyJSON: the single JSON delta TDelta carried before delta
// frames — what the benchmark's node.delta_us replay still sends — is
// accepted as a frame of one.
func TestDeltaLegacyJSON(t *testing.T) {
	rec := testRecord(t, 3, "legacy")
	id := rec.ComputeID()
	b, err := json.Marshal(legacyDelta{Origin: 99, Seq: 7, IDs: [][]byte{id[:]}, Attrs: []string{"sensor\x00s-3", "domain\x00legacy"}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := decodeDeltas(b)
	if err != nil {
		t.Fatalf("decode legacy delta: %v", err)
	}
	if len(ds) != 1 || ds[0].Origin != 99 || ds[0].Seq != 7 || len(ds[0].IDs) != 1 || ds[0].IDs[0] != id ||
		len(ds[0].AttrKeys) != 2 || ds[0].AttrKeys[0] != "domain\x00legacy" {
		t.Fatalf("legacy delta decoded as %+v", ds)
	}
	if _, err := decodeDeltas([]byte(`{"origin":1,"seq":1,"ids":["AAE="]}`)); err == nil {
		t.Fatal("legacy delta with a 2-byte id accepted")
	}
}

// TestDeltaHostileLengths: count fields claiming far more than the
// payload holds, and non-canonical frames, are refused without
// allocating for them.
func TestDeltaHostileLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	head := []byte{deltaFrameV1, 4, 0, 0, 0}
	frames := [][]byte{
		append(append([]byte(nil), head...), huge...),                      // count 2^62, no deltas
		append(append(append([]byte(nil), head...), 1, 1), huge...),        // 2^62 IDs
		append(append(append([]byte(nil), head...), 1, 1, 0), huge...),     // 2^62 keys
		append(append([]byte(nil), head...), 1, 1, 0, 1, 0x80, 0x80, 0x01), // key length past the end
		append(append([]byte(nil), head...), 2, 2, 0, 0, 1, 0, 0),          // sequence numbers descend
		append(append([]byte(nil), head...), 1, 1, 0, 2, 1, 'b', 1, 'a'),   // keys descend
		append(append([]byte(nil), head...), 0x80, 0x00),                   // non-minimal count
		append(append([]byte(nil), head...), 0, 0),                         // trailing byte
		{deltaFrameV1, 4, 0},
		{'[', ']'},
		nil,
	}
	var before, after runtime.MemStats
	for _, f := range frames {
		runtime.ReadMemStats(&before)
		_, err := decodeDeltas(f)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("frame %x accepted", f)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 4096 {
			t.Errorf("frame %x (%d bytes) allocated %d bytes", f, len(f), d)
		}
	}
}

// FuzzDecodeDeltas covers every byte path into the view's gossip apply:
// TDelta payloads, 'd' WAL records and a snapshot's own deltas all go
// through decodeDeltas. No input may panic, the delta slice is never
// reserved beyond what the payload could hold, and every binary frame
// accepted re-encodes to exactly its input.
func FuzzDecodeDeltas(f *testing.F) {
	for _, fr := range deltaFrames(f) {
		f.Add(fr)
		for _, cut := range []int{1, 5, 6, len(fr) / 2, len(fr) - 1} {
			if cut < len(fr) {
				f.Add(fr[:cut])
			}
		}
	}
	legacy, _ := json.Marshal(legacyDelta{Origin: 1, Seq: 1, IDs: [][]byte{make([]byte, 32)}, Attrs: []string{"k\x00v"}})
	f.Add(legacy)
	f.Add(legacy[:len(legacy)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		ds, err := decodeDeltas(b)
		if err != nil {
			return
		}
		if b[0] == '{' {
			if len(ds) != 1 {
				t.Fatalf("legacy delta decoded to %d deltas", len(ds))
			}
			return
		}
		if cap(ds)*minDelta > len(b) {
			t.Fatalf("reserved %d deltas for a %d-byte frame", cap(ds), len(b))
		}
		origin := int32(binary.LittleEndian.Uint32(b[1:5]))
		if got := appendDeltas(nil, origin, ds); !bytes.Equal(got, b) {
			t.Fatalf("accepted frame does not round-trip:\n got %x\nwant %x", got, b)
		}
	})
}

// TestPassnetTickOneFramePerPeer pins the batched gossip: after 64 puts
// one tick sends exactly one TDelta frame per peer and logs one 'a'
// record per peer at the origin, each peer logs the frame as one 'd'
// record, and a second tick has nothing left to send.
func TestPassnetTickOneFramePerPeer(t *testing.T) {
	nodes, _, _, c := bootDurableCluster(t, "passnet", 3, 0)
	tickAll(t, c, nodes) // a durable node boots catching up until its first tick
	acked := make(map[provenance.ID]bool)
	for i := 0; i < 64; i++ {
		id, err := c.Put(nodes[0].Addr(), testRecord(t, i, "one-frame"))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked[id] = true
	}
	// tick runs one tick at the origin; each peer must receive exactly
	// perPeer messages in it.
	tick := func(perPeer int64) (frames int64, wal []int64) {
		t.Helper()
		before := clusterStats(t, c, nodes)
		if err := c.Tick(nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
		after := clusterStats(t, c, nodes)
		// Less the TTickOK and the reply to the first TStat.
		frames = after[0].MsgsOut - before[0].MsgsOut - 2
		for i := range nodes {
			wal = append(wal, after[i].WalRecords-before[i].WalRecords)
			if i > 0 {
				if in := after[i].MsgsIn - before[i].MsgsIn - 1; in != perPeer { // less the second TStat
					t.Errorf("peer %d received %d messages in the tick, want %d", i, in, perPeer)
				}
			}
		}
		return frames, wal
	}
	frames, wal := tick(1)
	if frames != 2 {
		t.Errorf("tick sent %d frames, want 2 (one per peer)", frames)
	}
	if wal[0] != 2 || wal[1] != 1 || wal[2] != 1 {
		t.Errorf("tick appended %v WAL records (origin, peers), want [2 1 1]", wal)
	}
	for _, nd := range nodes[1:] {
		if r := queryRecall(t, c, nd.Addr(), "one-frame", acked); r != 1.0 {
			t.Errorf("recall via peer %d after the tick = %.3f, want 1.0", nd.cfg.ID, r)
		}
	}
	if frames, wal = tick(0); frames != 0 || wal[0]+wal[1]+wal[2] != 0 {
		t.Errorf("second tick sent %d frames and appended %v WAL records, want none", frames, wal)
	}
}

// locates reports whether n's view knows the record's home.
func locates(n *Node, id provenance.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.view.Locate(id)
	return ok
}

// TestPassnetPutsDuringTick is the open-loop hazard: puts keep arriving
// at the origin while it ticks, over and over. When a tick returns,
// every put acked before the tick was sent must be visible through both
// peers — an ack trims only what the frame carried, never puts that
// arrived while it was in flight — and no node may end up catching up
// (a gapped frame on a durable peer re-arms its catch-up pull).
func TestPassnetPutsDuringTick(t *testing.T) {
	const puts = 1200 // the recall answer stays one datagram
	nodes, _, _, c := bootDurableCluster(t, "passnet", 3, 64)
	tickAll(t, c, nodes)
	recs := make([]*provenance.Record, puts)
	for i := range recs {
		recs[i] = testRecord(t, i, "during")
	}
	var (
		mu    sync.Mutex
		acked []provenance.ID
		done  = make(chan struct{})
	)
	defer func() { <-done }() // a failed check must not leave the putter running
	go func() {
		defer close(done)
		for i, rec := range recs {
			id, err := c.Put(nodes[0].Addr(), rec)
			if err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			mu.Lock()
			acked = append(acked, id)
			mu.Unlock()
		}
	}()
	checked := 0
	verify := func(upto int) {
		t.Helper()
		mu.Lock()
		ids := append([]provenance.ID(nil), acked[checked:upto]...)
		mu.Unlock()
		for _, id := range ids {
			for _, nd := range nodes[1:] {
				if !locates(nd, id) {
					t.Fatalf("record %x acked before the tick is not visible via peer %d", id[:4], nd.cfg.ID)
				}
			}
		}
		checked = upto
	}
	rounds := 0
	for putting := true; putting; rounds++ {
		select {
		case <-done:
			putting = false // one last round, after every put
		default:
		}
		mu.Lock()
		upto := len(acked)
		mu.Unlock()
		if err := c.Tick(nodes[0].Addr()); err != nil {
			t.Fatalf("tick %d: %v", rounds, err)
		}
		verify(upto)
	}
	if checked != puts {
		t.Fatalf("%d of %d puts acked and checked", checked, puts)
	}
	t.Logf("%d puts over %d ticks", puts, rounds)
	for i, st := range clusterStats(t, c, nodes) {
		if st.CatchingUp {
			t.Errorf("node %d is catching up after puts during ticks", i)
		}
	}
	want := make(map[provenance.ID]bool, puts)
	for _, id := range acked {
		want[id] = true
	}
	for _, nd := range nodes[1:] {
		if r := queryRecall(t, c, nd.Addr(), "during", want); r != 1.0 {
			t.Errorf("recall via peer %d = %.3f, want 1.0", nd.cfg.ID, r)
		}
	}
}
