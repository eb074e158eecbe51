package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pass/internal/arch"
	"pass/internal/arch/siteview"
	"pass/internal/core"
	"pass/internal/index"
	"pass/internal/kvstore"
	"pass/internal/netsim"
	"pass/internal/node"
	"pass/internal/provenance"
	"pass/internal/query"
	"pass/internal/tuple"
	"pass/internal/wal"
	"pass/internal/wire"
	"pass/internal/workload"
)

// The layer replay pushes seeded inputs of the workloads' shapes through
// each layer's exported functions, in this process, from one goroutine,
// and reports time and allocations per call. It measures layers from
// outside and changes none of them. Fast calls are made replayCalls
// times; calls that cost a millisecond or that grow state quadratically
// are made fewer times, as stated beside each.
const replayCalls = 10_000

// replayer carries one replay's inputs and results.
type replayer struct {
	tr   *tracer
	out  map[string]metric
	dir  string
	recs []genRec
	encs [][]byte
	rtt  float64 // wire.rtt_us, subtracted from every node round trip
}

// timed runs fn(0..n-1) in five batches and returns the median batch's
// nanoseconds and heap allocations per call (allocations are the whole
// process's: a round trip's include the far side's).
func (r *replayer) timed(name string, n int, fn func(i int)) (ns, allocs float64) {
	h := r.tr.begin("replay."+name, -1)
	defer r.tr.end(h)
	const batches = 5
	per := max(1, n/batches)
	var nss, als []float64
	var m0, m1 runtime.MemStats
	for b := 0; b < batches; b++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := b * per; i < (b+1)*per; i++ {
			fn(i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(el.Nanoseconds())/float64(per))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(per))
	}
	return median(nss), median(als)
}

func (r *replayer) set(name string, v float64, unit string) { r.out[name] = metric{v, unit} }

// must turns a replay error into a panic that replayLayers recovers and
// returns: a layer refusing its own kind of input is a broken replay,
// never a number.
func must(err error) {
	if err != nil {
		panic(replayError{err})
	}
}

type replayError struct{ err error }

// replayLayers runs the whole replay and adds its metrics to out.
func (e *env) replayLayers(tr *tracer, out map[string]metric) (err error) {
	dir, err := os.MkdirTemp(e.workDir, "replay-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// One CPU for the whole replay: its round trips are between goroutines
	// of this process, and a wake-up across CPUs would be most of them.
	defer e.cpus.pinDriver()()
	defer func() {
		if p := recover(); p != nil {
			re, ok := p.(replayError)
			if !ok {
				panic(p)
			}
			err = re.err
		}
	}()
	r := &replayer{tr: tr, out: out, dir: dir}
	s := newRecStream(e.seed, 7)
	for i := 0; i < replayCalls; i++ {
		g := s.take()
		r.recs = append(r.recs, g)
		r.encs = append(r.encs, g.rec.Encode())
	}
	r.provenance()
	r.wire()
	r.wal()
	r.siteview()
	r.passnetNodes()
	r.dhtNodes()
	r.kvstore()
	r.localStore(e.seed)
	return nil
}

func (r *replayer) provenance() {
	ns, _ := r.timed("provenance.encode", replayCalls, func(i int) { _ = r.recs[i].rec.Encode() })
	r.set("provenance.encode_ns", ns, "ns")
	ns, al := r.timed("provenance.decode", replayCalls, func(i int) {
		_, err := provenance.Decode(r.encs[i])
		must(err)
	})
	r.set("provenance.decode_ns", ns, "ns")
	r.set("provenance.decode_allocs", al, "count")
	ns, _ = r.timed("provenance.id", replayCalls, func(i int) { _ = r.recs[i].rec.ComputeID() })
	r.set("provenance.id_ns", ns, "ns")
}

func (r *replayer) wire() {
	frames := make([][]byte, replayCalls)
	ns, al := r.timed("wire.encode", replayCalls, func(i int) {
		frames[i] = wire.Envelope{Ver: wire.Version, Type: wire.TPut, From: 1, MsgID: uint64(i),
			Size: uint32(len(r.encs[i])), Payload: r.encs[i]}.Encode()
	})
	r.set("wire.encode_ns", ns, "ns")
	r.set("wire.encode_allocs", al, "count")
	ns, al = r.timed("wire.decode", replayCalls, func(i int) {
		_, err := wire.Decode(frames[i])
		must(err)
	})
	r.set("wire.decode_ns", ns, "ns")
	r.set("wire.decode_allocs", al, "count")

	a, err := wire.NewEndpoint(3001, "127.0.0.1:0")
	must(err)
	defer a.Close()
	b, err := wire.NewEndpoint(3002, "127.0.0.1:0")
	must(err)
	defer b.Close()
	b.Handle(func(env wire.Envelope, _ *net.UDPAddr, reply func(wire.Type, []byte)) {
		reply(wire.TPong, env.Payload)
	})
	ns, al = r.timed("wire.rtt", replayCalls, func(i int) {
		_, err := a.Request(b.Addr(), wire.TPing, r.encs[i])
		must(err)
	})
	r.rtt = ns / 1e3
	r.set("wire.rtt_us", r.rtt, "us")
	r.set("wire.rtt_allocs", al, "count")
}

func (r *replayer) wal() {
	path := filepath.Join(r.dir, "append.log")
	l, err := wal.Open(path, wal.Options{}, nil)
	must(err)
	ns, al := r.timed("wal.append", replayCalls, func(i int) { must(l.Append(r.encs[i])) })
	must(l.Close())
	r.set("wal.append_ns", ns, "ns")
	r.set("wal.append_allocs", al, "count")

	h := r.tr.begin("replay.wal.replay", -1)
	t0 := time.Now()
	n, err := wal.Replay(path, func([]byte) error { return nil })
	r.tr.end(h)
	must(err)
	r.set("wal.replay_ns_per_rec", float64(time.Since(t0).Nanoseconds())/float64(max(1, n)), "ns")

	// 100 calls: a sync costs what the sandbox's device costs, up to
	// milliseconds. Reported as the sandbox's number, not a disk's.
	ls, err := wal.Open(filepath.Join(r.dir, "sync.log"), wal.Options{SyncOnAppend: true}, nil)
	must(err)
	ns, _ = r.timed("wal.append_sync", 100, func(i int) { must(ls.Append(r.encs[i])) })
	must(ls.Close())
	r.set("wal.append_sync_us", ns/1e3, "us")
}

// attrKeys lists a record's queriable attributes in the composite form
// the nodes and the views share: key, NUL, canonical value.
func attrKeys(rec *provenance.Record) []string {
	var out []string
	for _, a := range arch.QueriableAttrs(rec) {
		out = append(out, a.Key+"\x00"+string(a.Value.Canonical()))
	}
	return out
}

func (r *replayer) siteview() {
	deltas := make([]*siteview.Delta, replayCalls)
	for i, g := range r.recs {
		deltas[i] = siteview.NewDelta(netsim.SiteID(1), uint64(i+1), []provenance.ID{g.id}, attrKeys(g.rec))
	}
	v := siteview.NewView(netsim.SiteID(0))
	ns, al := r.timed("siteview.apply", replayCalls, func(i int) {
		if !v.Apply(deltas[i]) {
			must(fmt.Errorf("siteview: in-order delta %d refused", i))
		}
	})
	r.set("siteview.apply_ns", ns, "ns")
	r.set("siteview.apply_allocs", al, "count")
	ns, _ = r.timed("siteview.candidates", replayCalls, func(i int) {
		if len(v.CandidatesFor("sensor\x00"+string(provenance.String(sensorName(r.recs[i].sensor)).Canonical()))) == 0 {
			must(fmt.Errorf("siteview: no candidate for a delivered key"))
		}
	})
	r.set("siteview.candidates_ns", ns, "ns")
	ns, _ = r.timed("siteview.locate", replayCalls, func(i int) {
		if _, ok := v.Locate(r.recs[i].id); !ok {
			must(fmt.Errorf("siteview: delivered record not located"))
		}
	})
	r.set("siteview.locate_ns", ns, "ns")
	// 5 calls each: one call walks the whole 10,000-record view.
	var enc []byte
	ns, _ = r.timed("siteview.encode", 5, func(int) {
		var err error
		enc, err = v.Encode()
		must(err)
	})
	r.set("siteview.encode_ms", ns/1e6, "ms")
	ns, _ = r.timed("siteview.decode", 5, func(int) {
		_, err := siteview.DecodeView(enc)
		must(err)
	})
	r.set("siteview.decode_ms", ns/1e6, "ms")
}

// startNodes boots n in-process nodes of one mode on loopback (durable
// when data is set) and gives them each other's addresses.
func (r *replayer) startNodes(mode string, n int, data string) ([]*node.Node, *node.Client) {
	cl, err := node.NewClient(3100)
	must(err)
	var nodes []*node.Node
	var roster []node.Peer
	for i := 0; i < n; i++ {
		cfg := node.Config{ID: int32(i), Mode: mode, Listen: "127.0.0.1:0"}
		if data != "" {
			cfg.DataDir = filepath.Join(r.dir, data, fmt.Sprint(i))
		}
		nd, err := node.New(cfg)
		must(err)
		nodes = append(nodes, nd)
		roster = append(roster, node.Peer{ID: int32(i), Addr: nd.Addr().String()})
	}
	for _, nd := range nodes {
		must(cl.SetPeers(nd.Addr(), roster))
		must(cl.Tick(nd.Addr())) // a durable node boots catching_up until its first tick
	}
	return nodes, cl
}

// deltaMsg and storeMsg mirror the JSON bodies of TDelta and TStore, the
// two inter-node verbs the replay sends by hand to time their handlers
// alone. A node that stops understanding them answers TErr, which fails
// the replay, so drift is loud.
type deltaMsg struct {
	Origin int32    `json:"origin"`
	Seq    uint64   `json:"seq"`
	IDs    [][]byte `json:"ids"`
	Attrs  []string `json:"attrs"`
}

type storeMsg struct {
	Kind    string `json:"kind"`
	Replica bool   `json:"replica"`
	Src     int32  `json:"src"`
	Rec     []byte `json:"rec,omitempty"`
}

// us reports a node round trip less the bare wire round trip.
func (r *replayer) us(name string, ns float64) { r.set(name, ns/1e3-r.rtt, "us") }

func (r *replayer) passnetNodes() {
	// One node alone: a put with no peer to queue gossip for.
	solo, cl := r.startNodes("passnet", 1, "")
	ns, _ := r.timed("node.put", replayCalls, func(i int) {
		_, err := cl.Put(solo[0].Addr(), r.recs[i].rec)
		must(err)
	})
	r.us("node.put_us", ns)
	solo[0].Close()
	cl.Close()

	// The same, durable: 4,096 puts, so sixteen snapshot compactions of
	// growing size are inside the median like they are in a run.
	const durablePuts = 4096
	dur, cl := r.startNodes("passnet", 1, "durable")
	ns, _ = r.timed("node.put_durable", durablePuts, func(i int) {
		_, err := cl.Put(dur[0].Addr(), r.recs[i].rec)
		must(err)
	})
	r.us("node.put_durable_us", ns)
	ns, _ = r.timed("durable.compact", 5, func(int) { must(dur[0].Compact()) })
	r.set("durable.compact_ms", ns/1e6, "ms")
	dur[0].Close()
	cl.Close()
	cfg := node.Config{ID: 0, Mode: "passnet", Listen: "127.0.0.1:0", DataDir: filepath.Join(r.dir, "durable", "0")}
	ns, _ = r.timed("durable.recover", 5, func(int) {
		nd, err := node.New(cfg)
		must(err)
		if !nd.Recovered() {
			must(fmt.Errorf("durable node recovered nothing from %s", cfg.DataDir))
		}
		nd.Close()
	})
	r.set("durable.recover_ms", ns/1e6, "ms")

	// Three nodes: gossip and the read paths. 1,024 puts, because the one
	// tick that follows sends one TDelta per put per peer.
	const gossiped = 1024
	nodes, cl := r.startNodes("passnet", clusterNodes, "")
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
		cl.Close()
	}()
	for i := 0; i < gossiped; i++ {
		_, err := cl.Put(nodes[0].Addr(), r.recs[i].rec)
		must(err)
	}
	h := r.tr.begin("replay.node.tick", -1)
	t0 := time.Now()
	must(cl.Tick(nodes[0].Addr()))
	r.tr.end(h)
	r.set("node.tick_us_per_delta", float64(time.Since(t0).Microseconds())/float64(gossiped*(clusterNodes-1)), "us")

	ns, _ = r.timed("node.get_local", replayCalls, func(i int) {
		_, err := cl.Get(nodes[0].Addr(), r.recs[i%gossiped].id)
		must(err)
	})
	r.us("node.get_local_us", ns)
	ns, _ = r.timed("node.get_remote", replayCalls/2, func(i int) {
		_, err := cl.Get(nodes[1].Addr(), r.recs[i%gossiped].id)
		must(err)
	})
	r.us("node.get_remote_us", ns)
	ns, _ = r.timed("node.query", replayCalls/2, func(i int) {
		ids, err := cl.QueryAttr(nodes[1].Addr(), "sensor", provenance.String(sensorName(r.recs[i%gossiped].sensor)))
		must(err)
		if len(ids) == 0 {
			must(fmt.Errorf("node: query for a gossiped sensor came back empty"))
		}
	})
	r.us("node.query_us", ns)
	// Last, because a hand-made delta for a record re-homes it in node
	// 1's view, which would break the reads above.
	ep, err := wire.NewEndpoint(3200, "127.0.0.1:0")
	must(err)
	defer ep.Close()
	ns, _ = r.timed("node.delta", replayCalls, func(i int) {
		b, _ := json.Marshal(deltaMsg{Origin: 99, Seq: uint64(i + 1), IDs: [][]byte{r.recs[i].id[:]}, Attrs: attrKeys(r.recs[i].rec)})
		_, err := ep.Request(nodes[1].Addr(), wire.TDelta, b)
		must(err)
	})
	r.us("node.delta_us", ns)
}

func (r *replayer) dhtNodes() {
	// 500 puts: each is eighteen sequential placements and as many log
	// records, a few milliseconds in all.
	nodes, cl := r.startNodes("dht", clusterNodes, "dht")
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
		cl.Close()
	}()
	ns, _ := r.timed("node.dht_put", 500, func(i int) {
		_, err := cl.Put(nodes[0].Addr(), r.recs[i].rec)
		must(err)
	})
	r.us("node.dht_put_us", ns)
	ep, err := wire.NewEndpoint(3201, "127.0.0.1:0")
	must(err)
	defer ep.Close()
	ns, _ = r.timed("node.store", replayCalls/2, func(i int) {
		b, _ := json.Marshal(storeMsg{Kind: "rec", Src: 1, Rec: r.encs[replayCalls/2+i]})
		_, err := ep.Request(nodes[1].Addr(), wire.TStore, b)
		must(err)
	})
	r.us("node.store_us", ns)
}

func (r *replayer) kvstore() {
	db, err := kvstore.Open(filepath.Join(r.dir, "kv"), kvstore.Options{})
	must(err)
	defer db.Close()
	// 40,000 entries of a record's size: past the 4 MiB memtable, so the
	// worst Apply holds a flush.
	const entries = 4 * replayCalls
	key := func(i int) []byte { return []byte(fmt.Sprintf("k/%010d", i*7919%entries)) }
	worst := time.Duration(0)
	ns, _ := r.timed("kvstore.put", entries, func(i int) {
		t0 := time.Now()
		must(db.Put(key(i), r.encs[i%replayCalls]))
		worst = max(worst, time.Since(t0))
	})
	r.set("kvstore.put_ns", ns, "ns")
	r.set("kvstore.max_stall_ms", float64(worst)/1e6, "ms")
	// The newest tenth is still in the memtable.
	ns, _ = r.timed("kvstore.get_mem", replayCalls, func(i int) {
		_, err := db.Get(key(entries - 1 - i%(entries/10)))
		must(err)
	})
	r.set("kvstore.get_mem_ns", ns, "ns")
	must(db.Flush())
	ns, _ = r.timed("kvstore.get_table", replayCalls, func(i int) {
		_, err := db.Get(key(i))
		must(err)
	})
	r.set("kvstore.get_table_ns", ns, "ns")
	scanned := 0
	ns, _ = r.timed("kvstore.scan", 5, func(int) {
		must(db.ScanPrefix([]byte("k/"), func(_, _ []byte) bool { scanned++; return true }))
	})
	r.set("kvstore.scan_ns_per_key", ns/float64(max(1, scanned/5)), "ns")
	h := r.tr.begin("replay.kvstore.compact", -1)
	t0 := time.Now()
	must(db.Compact())
	r.tr.end(h)
	r.set("kvstore.compact_ms", float64(time.Since(t0))/1e6, "ms")
}

func (r *replayer) localStore(seed uint64) {
	var clock int64
	st, err := core.Open(filepath.Join(r.dir, "core"), core.Options{Clock: func() int64 { clock++; return clock }})
	must(err)
	defer st.Close()
	// 2,000 tuple sets, each fourth followed by a 4-parent derivation.
	const sets = 2000
	in, zones := localInputs(seed, sets)
	ids := make([]provenance.ID, sets)
	ns, al := r.timed("core.ingest", sets, func(i int) {
		ids[i], err = st.IngestTupleSet(in[i].Set, in[i].Attrs...)
		must(err)
	})
	r.set("core.ingest_us", ns/1e3, "us")
	r.set("core.ingest_allocs", al, "count")
	derived := make([]provenance.ID, sets/4)
	ns, _ = r.timed("core.derive", sets/4, func(i int) {
		out := workload.Aggregate([]*tuple.Set{in[4*i].Set, in[4*i+1].Set, in[4*i+2].Set, in[4*i+3].Set}, "agg")
		derived[i], err = st.Derive(ids[4*i:4*i+4], "aggregate", "1", out)
		must(err)
	})
	r.set("core.derive_us", ns/1e3, "us")
	ns, _ = r.timed("core.get_record", replayCalls, func(i int) {
		_, err := st.GetRecord(ids[i%sets])
		must(err)
	})
	r.set("core.get_record_us", ns/1e3, "us")

	ix := st.Index()
	zoneVal := func(i int) provenance.Value { return provenance.String(zoneName(zones[i%sets])) }
	ns, _ = r.timed("index.lookup_attr", sets, func(i int) {
		_, err := ix.LookupAttr(provenance.KeyZone, zoneVal(i))
		must(err)
	})
	r.set("index.lookup_attr_us", ns/1e3, "us")
	ns, _ = r.timed("index.has_attr", replayCalls, func(i int) {
		ok, err := ix.HasAttr(provenance.KeyZone, zoneVal(i), ids[i%sets])
		must(err)
		if !ok {
			must(fmt.Errorf("index: ingested record missing under its zone"))
		}
	})
	r.set("index.has_attr_ns", ns, "ns")
	ns, _ = r.timed("index.time_overlap", sets, func(i int) {
		_, err := ix.LookupTimeOverlap(in[i].Start, in[i].End)
		must(err)
	})
	r.set("index.time_overlap_us", ns/1e3, "us")
	ns, _ = r.timed("index.ancestors_cold", len(derived), func(i int) {
		a, err := ix.Ancestors(derived[i], index.NoLimit)
		must(err)
		if len(a) != 4 {
			must(fmt.Errorf("index: %d ancestors of a 4-parent derivation", len(a)))
		}
	})
	r.set("index.ancestors_cold_us", ns/1e3, "us")
	ns, _ = r.timed("index.ancestors_warm", replayCalls, func(i int) {
		_, err := ix.Ancestors(derived[i%len(derived)], index.NoLimit)
		must(err)
	})
	r.set("index.ancestors_warm_ns", ns, "ns")

	texts := make([]string, sets)
	for i := range texts {
		texts[i] = fmt.Sprintf("zone=%s AND OVERLAPS[%d,%d]", zoneName(zones[i]), in[i].Start, in[i].End)
	}
	ns, _ = r.timed("query.parse", replayCalls, func(i int) {
		_, err := query.Parse(texts[i%sets])
		must(err)
	})
	r.set("query.parse_ns", ns, "ns")
	ns, _ = r.timed("query.exec_attr", sets, func(i int) {
		_, err := st.Query(query.AttrEq{Key: provenance.KeyZone, Value: zoneVal(i)})
		must(err)
	})
	r.set("query.exec_attr_us", ns/1e3, "us")
	ns, _ = r.timed("query.exec_and", sets, func(i int) {
		_, err := st.QueryString(texts[i])
		must(err)
	})
	r.set("query.exec_and_us", ns/1e3, "us")
	ns, _ = r.timed("query.exec_ancestors", sets, func(i int) {
		_, err := st.Query(query.AncestorsOf{ID: derived[i%len(derived)], MaxDepth: index.NoLimit})
		must(err)
	})
	r.set("query.exec_ancestors_us", ns/1e3, "us")
}
