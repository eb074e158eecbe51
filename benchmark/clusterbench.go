package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"pass/internal/harness/cluster"
	"pass/internal/node"
	"pass/internal/provenance"
	"pass/internal/workload"
)

// The load shape every cluster workload shares (ISSUE 12): three durable
// nodes — dht's primary plus two replicas, passnet's fan-out of two — and
// two client goroutines with one socket each. Fixed, never derived from
// the machine, so numbers from different machines describe the same run.
const (
	clusterNodes = 3
	clients      = 2
	gateProbes   = 32 // gets, and as many queries, per restart gate
	gateTimeout  = 10 * time.Second
	sweepGets    = 2048 // settled records fetched from each node by the end-of-run sweep
)

// genRec is one generated record with what the oracle needs about it.
type genRec struct {
	rec    *provenance.Record
	id     provenance.ID
	sensor int
}

// recStream hands out a client's records: the same seed and client give
// the same sequence, whatever the other client does.
type recStream struct {
	rng  *workload.Rand
	next int
}

func newRecStream(seed uint64, client int) *recStream {
	return &recStream{rng: workload.NewRand(seed*0x9E3779B97F4A7C15 + uint64(client) + 1), next: client * 10_000_000}
}

func (s *recStream) take() genRec {
	rec, id, sensor := genRecord(s.rng, s.next)
	s.next++
	return genRec{rec, id, sensor}
}

// clusterBench is one booted cluster with the clients, oracle, recorder
// and tracer of the run that drives it.
type clusterBench struct {
	env *env
	c   *cluster.Cluster
	cl  [clients]*node.Client
	or  *oracle
	opRunner

	dir    string  // logs and node data; removed by close
	bootMs float64 // cluster.Start: processes up and roster acknowledged
}

// boot starts a durable cluster in a fresh directory under the run's
// work dir, runs the first tick (durable nodes boot catching_up until
// it), and returns the bench. The caller owns it and must call close.
func (e *env) boot(mode string, rec *recorder, tr *tracer) (*clusterBench, error) {
	dir, err := os.MkdirTemp(e.workDir, mode+"-*")
	if err != nil {
		return nil, err
	}
	if err := os.Mkdir(filepath.Join(dir, "logs"), 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var c *cluster.Cluster
	err = e.cpus.forNodes(func() (err error) {
		c, err = cluster.Start(cluster.Config{
			N: clusterNodes, Mode: mode, Seed: 1,
			LogDir: filepath.Join(dir, "logs"), DataRoot: filepath.Join(dir, "data"),
		})
		return err
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("boot %s cluster: %w", mode, err)
	}
	b := &clusterBench{env: e, c: c, or: newOracle(sensorCard), opRunner: opRunner{rec, tr}, dir: dir}
	b.bootMs = msSince(t0)
	e.track(b)
	for i := range b.cl {
		// Client IDs sit past the node range and past the cluster's own
		// control client.
		if b.cl[i], err = node.NewClient(int32(2000 + i)); err != nil {
			b.close()
			return nil, err
		}
	}
	if err := c.TickAll(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// close stops the node processes and the clients and removes the
// cluster's directory. Safe to call twice.
func (b *clusterBench) close() {
	if !b.env.untrack(b) {
		return
	}
	b.kill()
}

// kill is close without the bookkeeping: the signal handler calls it on
// every tracked bench.
func (b *clusterBench) kill() {
	b.c.Shutdown()
	for _, cl := range b.cl {
		if cl != nil {
			cl.Close()
		}
	}
	os.RemoveAll(b.dir)
}

// put publishes r through node n and checks the acknowledged ID.
func (b *clusterBench) put(cl *node.Client, n int, r genRec, start time.Time, measured bool) bool {
	b.or.issue(r.id, r.sensor)
	return b.timeOp("put", func() string { return fmt.Sprintf("%s via node %d", r.id.Short(), n) }, start, measured, func(root int) (func() error, error) {
		w := b.tr.begin("wire.request", root)
		id, err := cl.Put(b.c.Addr(n), r.rec)
		b.tr.end(w)
		return func() error {
			if id != r.id {
				return fmt.Errorf("acked %s", id.Short())
			}
			return nil
		}, err
	})
}

// get fetches id through node n, decodes it and recomputes its ID.
func (b *clusterBench) get(cl *node.Client, n int, id provenance.ID, start time.Time, measured bool) bool {
	return b.timeOp("get", func() string { return fmt.Sprintf("%s via node %d", id.Short(), n) }, start, measured, func(root int) (func() error, error) {
		w := b.tr.begin("wire.request", root)
		rec, err := cl.Get(b.c.Addr(n), id)
		b.tr.end(w)
		return func() error {
			if got := rec.ComputeID(); got != id {
				return fmt.Errorf("record hashes to %s", got.Short())
			}
			return nil
		}, err
	})
}

// query asks node n for a sensor's records and checks the answer against
// the oracle.
func (b *clusterBench) query(cl *node.Client, n, sensor int, start time.Time, measured bool) bool {
	return b.timeOp("query", func() string { return fmt.Sprintf("sensor=%s via node %d", sensorName(sensor), n) }, start, measured, func(root int) (func() error, error) {
		mark := b.or.mark(sensor)
		w := b.tr.begin("wire.request", root)
		got, err := cl.QueryAttr(b.c.Addr(n), "sensor", provenance.String(sensorName(sensor)))
		b.tr.end(w)
		return func() error { return b.or.checkQuery(sensor, got, mark, nil) }, err
	})
}

// tick runs one maintenance round on node n. In passnet mode its return
// is the promise that every record acknowledged by n before the tick was
// sent is now known to every peer, so those settle.
func (b *clusterBench) tick(cl *node.Client, n int, acked []provenance.ID, start time.Time, measured bool) bool {
	return b.timeOp("tick", func() string { return fmt.Sprintf("node %d", n) }, start, measured, func(root int) (func() error, error) {
		w := b.tr.begin("wire.request", root)
		err := cl.Tick(b.c.Addr(n))
		b.tr.end(w)
		if err == nil {
			b.or.settle(acked...)
		}
		return nil, err
	})
}

// eachClient runs fn once per client goroutine and waits for all.
func eachClient(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// restartCycles SIGKILLs and restarts the victim from its own disk
// `cycles` times. Each cycle is timed from the kill until the restarted
// node has answered the whole gate exactly: gateProbes gets of settled
// records and gateProbes sensor queries. It returns the per-cycle times
// to the gate and the part of each that was kill, exec and recovery up to
// the boot line.
func (b *clusterBench) restartCycles(cycles, victim int, rng *workload.Rand) (toGate, exec []float64) {
	pool := b.or.allSettled()
	for cycle := 0; cycle < cycles; cycle++ {
		t0 := time.Now()
		ok := b.timeOp("restart", func() string { return fmt.Sprintf("node %d cycle %d", victim, cycle) }, t0, false, func(root int) (func() error, error) {
			k := b.tr.begin("cluster.kill_restart", root)
			err := b.env.cpus.forNodes(func() error { return b.c.KillAndRestart(victim, false) })
			b.tr.end(k)
			exec = append(exec, msSince(t0))
			if err != nil {
				return nil, err
			}
			g := b.tr.begin("driver.gate", root)
			defer b.tr.end(g)
			for {
				err := b.gate(victim, pool, rng)
				if err == nil {
					return nil, nil
				}
				if time.Since(t0) > gateTimeout {
					return nil, fmt.Errorf("gate not met within %v: %w", gateTimeout, err)
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
		if ok {
			toGate = append(toGate, msSince(t0))
		}
	}
	return toGate, exec
}

// gate is one pass of the restart gate against node n; nil means every
// probe was answered exactly. No put is in flight while it runs.
func (b *clusterBench) gate(n int, pool []provenance.ID, rng *workload.Rand) error {
	cl, addr := b.cl[0], b.c.Addr(n)
	for i := 0; i < gateProbes && len(pool) > 0; i++ {
		id := pool[rng.Intn(len(pool))]
		rec, err := cl.Get(addr, id)
		if err != nil {
			return err
		}
		if rec.ComputeID() != id {
			return fmt.Errorf("get %s: wrong record", id.Short())
		}
	}
	for i := 0; i < gateProbes; i++ {
		sensor := rng.Intn(sensorCard)
		got, err := cl.QueryAttr(addr, "sensor", provenance.String(sensorName(sensor)))
		if err != nil {
			return err
		}
		if err := b.or.checkQuery(sensor, got, b.or.mark(sensor), nil); err != nil {
			return fmt.Errorf("query sensor=%s: %w", sensorName(sensor), err)
		}
	}
	return nil
}

// sweep is the end-of-run recall check, from every live node: every
// sensor query must return exactly the settled records (so every
// acknowledged put is seen through its query from every node), and up to
// sweepGets settled records per node are fetched and re-hashed. The two
// clients split the probes. It returns the share of probes that passed.
func (b *clusterBench) sweep() float64 {
	pool := b.or.allSettled()
	step := max(1, len(pool)/sweepGets)
	var mu sync.Mutex
	passed, total := 0, 0
	eachClient(func(c int) {
		ok, all := 0, 0
		for n := 0; n < b.c.N(); n++ {
			if !b.c.Alive(n) {
				continue
			}
			for k := c; k < sensorCard; k += clients {
				all++
				if b.query(b.cl[c], n, k, time.Now(), false) {
					ok++
				}
			}
			for i := c * step; i < len(pool); i += clients * step {
				all++
				if b.get(b.cl[c], n, pool[i], time.Now(), false) {
					ok++
				}
			}
		}
		mu.Lock()
		passed, total = passed+ok, total+all
		mu.Unlock()
	})
	if total == 0 {
		return 0
	}
	return float64(passed) / float64(total)
}

// nodeCounters is the sum over live nodes of what TStat and /metrics
// expose; two snapshots bracket a phase and their difference is the
// phase's work.
type nodeCounters struct {
	msgsIn, bytesIn, dropped         float64
	walAppends, walBytes, walCompact float64
	walErrors                        float64
	records                          float64
	catchingUp                       int
}

func (b *clusterBench) counters() (nodeCounters, error) {
	var sum nodeCounters
	for n := 0; n < b.c.N(); n++ {
		if !b.c.Alive(n) {
			continue
		}
		st, err := b.cl[0].Stat(b.c.Addr(n))
		if err != nil {
			return sum, fmt.Errorf("stat node %d: %w", n, err)
		}
		sum.msgsIn += float64(st.MsgsIn)
		sum.bytesIn += float64(st.BytesIn)
		sum.dropped += float64(st.Dropped)
		sum.records += float64(st.Records)
		if st.CatchingUp {
			sum.catchingUp++
		}
		series, err := scrape(b.c.HTTPAddr(n))
		if err != nil {
			return sum, fmt.Errorf("scrape node %d: %w", n, err)
		}
		sum.walAppends += series["pass_wal_appends_total"]
		sum.walBytes += series["pass_wal_bytes_total"]
		sum.walCompact += series["pass_wal_truncations_total"]
		sum.walErrors += series["pass_wal_errors_total"]
	}
	return sum, nil
}

// scrape reads a node's Prometheus exposition into name -> value
// (unlabeled series only, which is all a node exports).
func scrape(httpAddr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// dirBytes sizes a directory tree: all its files, and the node
// snapshots ("snap") among them.
func dirBytes(root string) (all, snaps float64) {
	_ = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil // a file compacted away mid-walk is not an error here
		}
		all += float64(info.Size())
		if info.Name() == "snap" {
			snaps += float64(info.Size())
		}
		return nil
	})
	return all, snaps
}
