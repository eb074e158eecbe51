package main

import (
	"sync"
	"time"

	"pass/internal/provenance"
	"pass/internal/workload"
)

// A run is sized by a fixed number of operations, not by a duration: the
// cost of an operation grows with the state behind it (a durable passnet
// node snapshots its whole state every 256 log records), so a fixed-time
// run would hand a slower build a smaller store and flatter numbers.
// -seconds is turned into operations with the rates below, which are what
// this machine class (2 cores) sustained at the commit that added the
// benchmark; they are frozen so later commits run the same work.
const (
	ingestPutsPerSecond = 1600 // passnet-ingest, both clients together
	serveOpsPerSecond   = 1500 // passnet-serve's open-loop rate: about half of closed-loop capacity
	dhtOpsPerSecond     = 1300 // dht-mixed, both clients together
	localOpsPerSecond   = 5600 // local-store, load and mixed phases together

	warmupOps     = 512 // first operations of every run, inside set-up time, latencies discarded
	tickEvery     = 64  // passnet-ingest: puts between ticks of a client's origin
	readBack      = 4   // passnet-ingest: gets, and as many queries, through a peer after each tick
	serveTick     = 16  // passnet-serve: puts between ticks of an origin
	servePreload  = 1024
	serveInFlight = 64
	dhtPreload    = 128 // records per client put before dht-mixed's mix starts, so reads have targets
)

// clusterLoad is one cluster workload's input generator and schedule,
// built afresh from the seed for every boot.
type clusterLoad interface {
	// prepare preloads and warms up; it runs inside set-up time and its
	// latencies are discarded.
	prepare(b *clusterBench)
	// measure runs the measured phase of ops client operations. An open
	// loop returns how many requests it scheduled and how many of them
	// left the generator late; a closed loop returns zeros.
	measure(b *clusterBench, ops int) (sent, late int)
}

// clusterWorkload describes one workload over the node path.
type clusterWorkload struct {
	name string
	mode string
	rate int // client operations per second of -seconds
	load func(seed uint64) clusterLoad
}

var clusterWorkloads = []clusterWorkload{
	{name: "passnet-ingest", mode: "passnet", rate: ingestPutsPerSecond,
		load: func(seed uint64) clusterLoad { return newIngestLoad(seed) }},
	{name: "passnet-serve", mode: "passnet", rate: serveOpsPerSecond,
		load: func(seed uint64) clusterLoad { return newServeLoad(seed) }},
	{name: "dht-mixed", mode: "dht", rate: dhtOpsPerSecond,
		load: func(seed uint64) clusterLoad { return newMixedLoad(seed) }},
}

// ---- passnet-ingest: closed loop, puts with a read-back after each tick ----

type ingestLoad struct {
	streams [clients]*recStream
	rngs    [clients]*workload.Rand
}

func newIngestLoad(seed uint64) *ingestLoad {
	l := &ingestLoad{}
	for c := range l.streams {
		l.streams[c] = newRecStream(seed, c)
		l.rngs[c] = workload.NewRand(seed ^ uint64(0x1d9e57+c))
	}
	return l
}

func (l *ingestLoad) prepare(b *clusterBench) { l.run(b, warmupOps, false) }

func (l *ingestLoad) measure(b *clusterBench, ops int) (sent, late int) {
	l.run(b, ops, true)
	return 0, 0
}

// run has each client put its half of n records to its own origin node,
// ticking that node after every tickEvery puts and once at the end. A
// tick's return is the promise that the batch is visible from every
// peer, so the client at once reads readBack records of the batch back
// through a peer, by ID and by sensor query. Those reads are the
// workload's get and query latencies: taken while the nodes are busy
// ingesting, not from an idle cluster afterwards.
func (l *ingestLoad) run(b *clusterBench, n int, measured bool) {
	eachClient(func(c int) {
		var batch []genRec
		var acked []provenance.ID
		for i, per := 0, n/clients; i < per; i++ {
			r := l.streams[c].take()
			if b.put(b.cl[c], c, r, time.Now(), measured) {
				batch, acked = append(batch, r), append(acked, r.id)
			}
			if (i+1)%tickEvery != 0 && i != per-1 {
				continue
			}
			if b.tick(b.cl[c], c, acked, time.Now(), measured) {
				for j := 0; j < readBack && len(batch) > 0; j++ {
					r := batch[l.rngs[c].Intn(len(batch))]
					peer := (c + 1 + l.rngs[c].Intn(clusterNodes-1)) % clusterNodes
					b.get(b.cl[c], peer, r.id, time.Now(), measured)
					b.query(b.cl[c], peer, r.sensor, time.Now(), measured)
				}
			}
			batch, acked = batch[:0], acked[:0]
		}
	})
}

// ---- passnet-serve: open loop, read-mostly ----

type serveLoad struct {
	seed    uint64
	streams [clients]*recStream
	preload []provenance.ID // settled before the measured phase; what gets ask for

	mu      sync.Mutex
	acked   [clients][]provenance.ID // acknowledged by origin c, not yet ticked
	puts    [clients]int
	ticking [clients]bool
}

func newServeLoad(seed uint64) *serveLoad {
	l := &serveLoad{seed: seed}
	for c := range l.streams {
		l.streams[c] = newRecStream(seed, c)
	}
	return l
}

// prepare loads servePreload records per origin, gossips them fully, and
// warms every node's read path.
func (l *serveLoad) prepare(b *clusterBench) {
	var mu sync.Mutex
	eachClient(func(c int) {
		var acked, all []provenance.ID
		for i := 0; i < servePreload; i++ {
			r := l.streams[c].take()
			if b.put(b.cl[c], c, r, time.Now(), false) {
				acked = append(acked, r.id)
				all = append(all, r.id)
			}
			if (i+1)%tickEvery == 0 || i == servePreload-1 {
				b.tick(b.cl[c], c, acked, time.Now(), false)
				acked = acked[:0]
			}
		}
		mu.Lock()
		l.preload = append(l.preload, all...)
		mu.Unlock()
	})
	// Deterministic order whatever the interleaving of the two clients:
	// the Zipf rank of a record must depend on the seed alone.
	sortIDs(l.preload)
	eachClient(func(c int) {
		for i := c; i < warmupOps && len(l.preload) > 0; i += clients {
			if i%2 == 0 {
				b.get(b.cl[c], i%clusterNodes, l.preload[i%len(l.preload)], time.Now(), false)
			} else {
				b.query(b.cl[c], i%clusterNodes, i%sensorCard, time.Now(), false)
			}
		}
	})
}

// serveOp is one scheduled operation of the open loop.
type serveOp struct {
	kind byte // 'g', 'q' or 'p'
	node int
	key  int // gets: rank into preload; queries: sensor
}

// measure issues ops operations at serveOpsPerSecond: 45% gets and 45%
// sensor queries through a uniformly drawn node with Zipf-skewed keys
// (workload.OpenLoop's draws), 10% puts to the issuing client's origin
// with a tick of that origin after every serveTick acknowledged puts.
func (l *serveLoad) measure(b *clusterBench, ops int) (sent, late int) {
	rng := workload.NewRand(l.seed ^ 0x5e57e)
	draws := func(keys int) []workload.Arrival {
		g := workload.NewOpenLoop(workload.OpenLoopConfig{
			Seed: l.seed + uint64(keys), HotKeys: keys, NominalPerRound: float64(ops), ZipfS: 1.1,
		})
		return g.Arrivals(0)
	}
	getKeys, queryKeys := draws(len(l.preload)), draws(sensorCard)
	plan := make([]serveOp, ops)
	for i := range plan {
		switch u := rng.Intn(100); {
		case u < 45:
			plan[i] = serveOp{'g', rng.Intn(clusterNodes), getKeys[i%len(getKeys)].Key}
		case u < 90:
			plan[i] = serveOp{'q', rng.Intn(clusterNodes), queryKeys[i%len(queryKeys)].Key}
		default:
			plan[i] = serveOp{kind: 'p'}
		}
	}
	// Records are drawn before the clock starts, in schedule order, so
	// which record an operation puts does not depend on timing.
	recs := make(map[int]genRec)
	for i, op := range plan {
		if op.kind == 'p' {
			recs[i] = l.streams[i%clients].take()
		}
	}
	late = openLoop(ops, float64(serveOpsPerSecond), clients, serveInFlight, func(i int, due time.Time) {
		c, op := i%clients, plan[i]
		switch op.kind {
		case 'g':
			b.get(b.cl[c], op.node, l.preload[op.key], due, true)
		case 'q':
			b.query(b.cl[c], op.node, op.key, due, true)
		case 'p':
			r := recs[i]
			if !b.put(b.cl[c], c, r, due, true) {
				return
			}
			l.mu.Lock()
			l.acked[c] = append(l.acked[c], r.id)
			l.puts[c]++
			tickNow := l.puts[c]%serveTick == 0 && !l.ticking[c]
			var batch []provenance.ID
			if tickNow {
				l.ticking[c] = true
				batch, l.acked[c] = l.acked[c], nil
			}
			l.mu.Unlock()
			if tickNow {
				b.tick(b.cl[c], c, batch, time.Now(), true)
				l.mu.Lock()
				l.ticking[c] = false
				l.mu.Unlock()
			}
		}
	})
	// Gossip what the last partial batches left behind, so that every
	// acknowledged put is settled before the restart gate and the sweep.
	eachClient(func(c int) {
		b.tick(b.cl[c], c, l.acked[c], time.Now(), true)
		l.acked[c] = nil
	})
	return ops, late
}

// ---- dht-mixed: closed loop, 30% put / 35% get / 35% query ----

type mixedLoad struct {
	seed    uint64
	streams [clients]*recStream
	rngs    [clients]*workload.Rand
	mine    [clients][]provenance.ID // each client's own acknowledged puts: what its gets ask for
}

func newMixedLoad(seed uint64) *mixedLoad {
	l := &mixedLoad{seed: seed}
	for c := range l.streams {
		l.streams[c] = newRecStream(seed, c)
		l.rngs[c] = workload.NewRand(seed ^ uint64(0xd47+c))
	}
	return l
}

func (l *mixedLoad) prepare(b *clusterBench) {
	eachClient(func(c int) {
		for i := 0; i < dhtPreload; i++ {
			l.put(b, c, false)
		}
	})
	l.run(b, warmupOps, false)
}

func (l *mixedLoad) measure(b *clusterBench, ops int) (sent, late int) {
	l.run(b, ops, true)
	return 0, 0
}

// put publishes the client's next record through its own node. A dht put
// returns after every placement, so the record settles on return.
func (l *mixedLoad) put(b *clusterBench, c int, measured bool) {
	r := l.streams[c].take()
	if b.put(b.cl[c], c, r, time.Now(), measured) {
		b.or.settle(r.id)
		l.mine[c] = append(l.mine[c], r.id)
	}
}

// run has each client issue its half of n operations through its own
// node. A client's draws depend only on its own stream, so the operation
// sequence is the seed's whatever the other client's pace.
func (l *mixedLoad) run(b *clusterBench, n int, measured bool) {
	eachClient(func(c int) {
		rng := l.rngs[c]
		for i := 0; i < n/clients; i++ {
			switch u := rng.Intn(100); {
			case u < 30 || len(l.mine[c]) == 0:
				l.put(b, c, measured)
			case u < 65:
				b.get(b.cl[c], c, l.mine[c][rng.Intn(len(l.mine[c]))], time.Now(), measured)
			default:
				b.query(b.cl[c], c, rng.Intn(sensorCard), time.Now(), measured)
			}
		}
	})
}
