package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pass/internal/core"
	"pass/internal/index"
	"pass/internal/provenance"
	"pass/internal/query"
	"pass/internal/tuple"
	"pass/internal/workload"
)

// local-store drives an in-process core.Store: a load phase on one
// goroutine, then a mixed phase on two. It bypasses wire and node
// entirely, so the prediction for any node-path optimisation is "no
// change here".
const (
	localLoadShare = 0.4 // share of a run's operations that are the load phase
	windowDur      = time.Hour
	windowBase     = int64(1_700_000_000) * int64(time.Second)
)

// localRec is what the driver remembers about a record it stored.
type localRec struct {
	zone       int
	start, end int64 // raw records only; 0,0 for a derivation
	parents    []provenance.ID
}

// localBench is one open store with the driver's model of it.
type localBench struct {
	dir   string
	store *core.Store
	clock atomic.Int64
	or    *oracle
	opRunner

	mu        sync.Mutex
	known     map[provenance.ID]*localRec
	ids       []provenance.ID // every stored record, in store order
	derived   []provenance.ID // derivations, the targets of ancestor queries
	userBytes float64         // encoded tuple sets handed to the store
}

// openLocal opens a store on a fresh directory with the default
// kvstore.Options and a counting clock, so record IDs depend on the seed
// alone.
func (e *env) openLocal(rec *recorder, tr *tracer) (*localBench, error) {
	dir, err := os.MkdirTemp(e.workDir, "local-*")
	if err != nil {
		return nil, err
	}
	lb := &localBench{dir: dir, or: newOracle(zoneCard), opRunner: opRunner{rec, tr}, known: make(map[provenance.ID]*localRec)}
	lb.store, err = core.Open(filepath.Join(dir, "store"), core.Options{Clock: func() int64 { return lb.clock.Add(1) }})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return lb, nil
}

func (lb *localBench) close() {
	lb.store.Close()
	os.RemoveAll(lb.dir)
}

// remember files a stored record with the oracle; it is visible to every
// reader as soon as the store call returned.
func (lb *localBench) remember(id provenance.ID, r *localRec, bytes int) error {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if id.IsZero() {
		return fmt.Errorf("store returned the zero ID")
	}
	if _, dup := lb.known[id]; dup {
		return fmt.Errorf("store returned %s twice", id.Short())
	}
	lb.known[id] = r
	lb.ids = append(lb.ids, id)
	if len(r.parents) > 0 {
		lb.derived = append(lb.derived, id)
	}
	lb.userBytes += float64(bytes)
	lb.or.issue(id, r.zone)
	lb.or.settle(id)
	return nil
}

// ingest stores one generated tuple set.
func (lb *localBench) ingest(g workload.GenSet, zone int, measured bool) (id provenance.ID, ok bool) {
	ok = lb.timeOp("put", func() string { return "ingest zone " + zoneName(zone) }, time.Now(), measured, func(root int) (func() error, error) {
		c := lb.tr.begin("core.ingest", root)
		var err error
		id, err = lb.store.IngestTupleSet(g.Set, g.Attrs...)
		lb.tr.end(c)
		return func() error {
			return lb.remember(id, &localRec{zone: zone, start: g.Start, end: g.End}, g.Set.EncodedSize())
		}, err
	})
	return id, ok
}

// derive stores out as derived from parents.
func (lb *localBench) derive(parents []provenance.ID, tool string, out *tuple.Set, zone int, measured bool) (id provenance.ID, ok bool) {
	ok = lb.timeOp("put", func() string { return "derive " + tool }, time.Now(), measured, func(root int) (func() error, error) {
		c := lb.tr.begin("core.derive", root)
		var err error
		id, err = lb.store.Derive(parents, tool, "1", out,
			provenance.Attr(provenance.KeyZone, provenance.String(zoneName(zone))))
		lb.tr.end(c)
		return func() error {
			return lb.remember(id, &localRec{zone: zone, parents: append([]provenance.ID(nil), parents...)}, out.EncodedSize())
		}, err
	})
	return id, ok
}

// getRecord loads id from store and checks its hash and zone.
func (lb *localBench) getRecord(store *core.Store, id provenance.ID, measured bool) bool {
	return lb.timeOp("get", func() string { return id.Short() }, time.Now(), measured, func(root int) (func() error, error) {
		c := lb.tr.begin("core.get_record", root)
		rec, err := store.GetRecord(id)
		lb.tr.end(c)
		return func() error {
			if got := rec.ComputeID(); got != id {
				return fmt.Errorf("record hashes to %s", got.Short())
			}
			lb.mu.Lock()
			want := lb.known[id].zone
			lb.mu.Unlock()
			if !rec.Has(provenance.KeyZone, provenance.String(zoneName(want))) {
				return fmt.Errorf("record lacks zone=%s", zoneName(want))
			}
			return nil
		}, err
	})
}

// queryZone runs AttrEq(zone) against store.
func (lb *localBench) queryZone(store *core.Store, zone int, measured bool) bool {
	return lb.timeOp("query", func() string { return "zone=" + zoneName(zone) }, time.Now(), measured, func(root int) (func() error, error) {
		mark := lb.or.mark(zone)
		c := lb.tr.begin("core.query", root)
		got, err := store.Query(query.AttrEq{Key: provenance.KeyZone, Value: provenance.String(zoneName(zone))})
		lb.tr.end(c)
		return func() error { return lb.or.checkQuery(zone, got, mark, nil) }, err
	})
}

// queryZoneWindow runs `zone = z AND OVERLAPS[lo,hi]` through the parser.
func (lb *localBench) queryZoneWindow(zone int, lo, hi int64, measured bool) bool {
	q := fmt.Sprintf("zone=%s AND OVERLAPS[%d,%d]", zoneName(zone), lo, hi)
	return lb.timeOp("query", func() string { return q }, time.Now(), measured, func(root int) (func() error, error) {
		mark := lb.or.mark(zone)
		c := lb.tr.begin("core.query_string", root)
		got, err := lb.store.QueryString(q)
		lb.tr.end(c)
		return func() error {
			lb.mu.Lock()
			defer lb.mu.Unlock()
			return lb.or.checkQuery(zone, got, mark, func(id provenance.ID) bool {
				r := lb.known[id]
				return r != nil && r.end != 0 && r.start <= hi && r.end >= lo
			})
		}, err
	})
}

// ancestors runs Ancestors(id, NoLimit) and compares with the closure of
// the parents the driver itself handed to Derive.
func (lb *localBench) ancestors(id provenance.ID, measured bool) bool {
	return lb.timeOp("query", func() string { return "ancestors " + id.Short() }, time.Now(), measured, func(root int) (func() error, error) {
		c := lb.tr.begin("core.ancestors", root)
		got, err := lb.store.Ancestors(id, index.NoLimit)
		lb.tr.end(c)
		return func() error {
			lb.mu.Lock()
			defer lb.mu.Unlock()
			want := make(map[provenance.ID]bool)
			for stack := []provenance.ID{id}; len(stack) > 0; {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range lb.known[top].parents {
					if !want[p] {
						want[p] = true
						stack = append(stack, p)
					}
				}
			}
			if len(got) != len(want) {
				return fmt.Errorf("%d ancestors, want %d", len(got), len(want))
			}
			for _, a := range got {
				if !want[a] {
					return fmt.Errorf("%s is not an ancestor", a.Short())
				}
			}
			return nil
		}, err
	})
}

// putter issues a goroutine's write operations: tuple sets in order, each
// fourth followed by a 4-parent aggregate and a depth-3 chain of filters
// on it, one store call per operation.
type putter struct {
	lb      *localBench
	sets    []workload.GenSet
	zones   []int
	next    int
	recent  []provenance.ID // raw records since the last aggregate
	recentS []*tuple.Set
	chain   int // derivations still owed on top of last
	last    provenance.ID
	lastSet *tuple.Set
	lastZ   int
}

// step performs one write operation; false when the sets ran out.
func (p *putter) step(measured bool) bool {
	if p.chain > 0 {
		out := workload.Filter(p.lastSet, 0)
		if id, ok := p.lb.derive([]provenance.ID{p.last}, "filter", out, p.lastZ, measured); ok {
			p.last, p.lastSet = id, out
		}
		p.chain--
		return true
	}
	if len(p.recent) == 4 {
		out := workload.Aggregate(p.recentS, "agg")
		if id, ok := p.lb.derive(p.recent, "aggregate", out, p.lastZ, measured); ok {
			p.last, p.lastSet, p.chain = id, out, 3
		}
		p.recent, p.recentS = p.recent[:0], p.recentS[:0]
		return true
	}
	if p.next >= len(p.sets) {
		return false
	}
	g, z := p.sets[p.next], p.zones[p.next]
	p.next++
	if id, ok := p.lb.ingest(g, z, measured); ok {
		p.recent, p.recentS, p.lastZ = append(p.recent, id), append(p.recentS, g.Set), z
	}
	return true
}

// localInputs generates n tuple sets over zoneCard zones and shuffles
// them with the seed, so consecutive ingests land in different zones.
func localInputs(seed uint64, n int) ([]workload.GenSet, []int) {
	zones := make([]string, zoneCard)
	for i := range zones {
		zones[i] = zoneName(i)
	}
	windows := (n + zoneCard - 1) / zoneCard
	sets := workload.Generate(workload.Config{
		Zones: zones, Windows: windows, WindowDur: windowDur,
		StartTime: windowBase, Seed: seed,
	})
	zoneOf := make([]int, len(sets))
	for i := range sets {
		zoneOf[i] = i / windows // Generate is zone-major
	}
	rng := workload.NewRand(seed ^ 0x10ca1)
	for i := len(sets) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		sets[i], sets[j] = sets[j], sets[i]
		zoneOf[i], zoneOf[j] = zoneOf[j], zoneOf[i]
	}
	return sets[:n], zoneOf[:n]
}

// localRun is one store's whole life: set-up (open and warm-up), load
// phase, mixed phase. It returns the bench still open, the set-up
// seconds and the measured wall seconds.
func (e *env) localRun(rec *recorder, tr *tracer, ops int, setupOnly bool) (lb *localBench, setup, wall float64, err error) {
	loadOps := int(float64(ops) * localLoadShare)
	mixedOps := ops - loadOps
	// Half of all write operations are ingests; the mixed phase writes
	// with a fifth of its operations (a quarter is provisioned: the draw is random).
	need := (warmupOps+loadOps)/2 + mixedOps/8 + 64
	sets, zones := localInputs(e.seed, need)

	t0 := time.Now()
	if lb, err = e.openLocal(rec, tr); err != nil {
		return nil, 0, 0, err
	}
	loader := &putter{lb: lb, sets: sets, zones: zones}
	for i := 0; i < warmupOps; i++ {
		loader.step(false)
	}
	setup = time.Since(t0).Seconds()
	if setupOnly {
		return lb, setup, 0, nil
	}

	t1 := time.Now()
	for i := 0; i < loadOps; i++ {
		loader.step(true)
	}
	// The mixed phase: each goroutine owns half of the remaining sets and
	// half of the derivations the load phase left, and draws from its own
	// stream, so its operation sequence is the seed's alone.
	rest, restZ := sets[loader.next:], zones[loader.next:]
	loaded := append([]provenance.ID(nil), lb.ids...)
	targets := append([]provenance.ID(nil), lb.derived...)
	eachClient(func(c int) {
		rng := workload.NewRand(e.seed ^ uint64(0x313+c))
		half := len(rest) / clients
		w := &putter{lb: lb, sets: rest[c*half : (c+1)*half], zones: restZ[c*half : (c+1)*half]}
		asked := c
		for i := 0; i < mixedOps/clients; i++ {
			switch u := rng.Intn(100); {
			case u < 20:
				if !w.step(true) {
					lb.rec.fail("local-store ran out of generated sets")
					return
				}
			case u < 40:
				lb.getRecord(lb.store, loaded[rng.Intn(len(loaded))], true)
			case u < 60:
				lb.queryZone(lb.store, rng.Intn(zoneCard), true)
			case u < 80:
				lo := windowBase + int64(rng.Intn(max(1, len(sets)/zoneCard)))*int64(windowDur)
				lb.queryZoneWindow(rng.Intn(zoneCard), lo, lo+2*int64(windowDur), true)
			default:
				// Not-yet-asked IDs while they last, so the closure is
				// computed, not served from the memo.
				lb.ancestors(targets[asked%len(targets)], true)
				asked += clients
			}
		}
	})
	return lb, setup, time.Since(t1).Seconds(), nil
}

// crashCycles copies the un-Closed store directory `cycles` times — what
// a SIGKILL would leave, page cache intact — and times opening each copy
// until it has answered the gate exactly: gateProbes GetRecords and
// gateProbes zone queries.
func (lb *localBench) crashCycles(cycles int, rng *workload.Rand) (toGate, open []float64) {
	for cycle := 0; cycle < cycles; cycle++ {
		img := filepath.Join(lb.dir, fmt.Sprintf("image-%d", cycle))
		if err := copyDir(filepath.Join(lb.dir, "store"), img); err != nil {
			lb.rec.fail("copy crash image: %v", err)
			return
		}
		t0 := time.Now()
		var st *core.Store
		ok := lb.timeOp("restart", func() string { return fmt.Sprintf("crash image %d", cycle) }, t0, false, func(root int) (func() error, error) {
			o := lb.tr.begin("core.open", root)
			var err error
			st, err = core.Open(img, core.Options{})
			lb.tr.end(o)
			open = append(open, msSince(t0))
			return nil, err
		})
		if !ok {
			continue
		}
		good := true
		g := lb.tr.begin("driver.gate", -1)
		for i := 0; i < gateProbes; i++ {
			good = lb.getRecord(st, lb.ids[rng.Intn(len(lb.ids))], false) && good
			good = lb.queryZone(st, rng.Intn(zoneCard), false) && good
		}
		lb.tr.end(g)
		if good {
			toGate = append(toGate, msSince(t0))
		}
		st.Close()
		os.RemoveAll(img)
	}
	return toGate, open
}

// sweep is the end-of-run recall check on the live store: every zone
// query exact, and up to sweepGets records re-read and re-hashed.
func (lb *localBench) sweep() float64 {
	passed, total := 0, 0
	for z := 0; z < zoneCard; z++ {
		total++
		if lb.queryZone(lb.store, z, false) {
			passed++
		}
	}
	for i, step := 0, max(1, len(lb.ids)/sweepGets); i < len(lb.ids); i += step {
		total++
		if lb.getRecord(lb.store, lb.ids[i], false) {
			passed++
		}
	}
	return float64(passed) / float64(total)
}

// runLocal is the untraced local-store run.
func (e *env) runLocal() (*report, error) {
	o := outcome{rec: newRecorder(e.seed)}
	ops := e.opsFor(localOpsPerSecond)
	for rep := 0; rep < localSetupReps-1; rep++ {
		lb, secs, _, err := e.localRun(o.rec, nil, ops, true)
		if err != nil {
			return nil, err
		}
		lb.close()
		o.setups = append(o.setups, secs)
	}
	lb, secs, wall, err := e.localRun(o.rec, nil, ops, false)
	if err != nil {
		return nil, err
	}
	defer lb.close()
	o.setups = append(o.setups, secs)
	// Only the load and mixed phases are recorded as measured, so the
	// recorder's count is theirs.
	o.wall, o.done = wall, o.rec.okTimed
	o.toGate, _ = lb.crashCycles(restartCycleCount, workload.NewRand(e.seed^0x6a7e))
	o.recall = lb.sweep()
	o.ghosts = lb.or.unresolved()
	return buildReport("local-store", e, o), nil
}

// traceLocal is the traced local-store run: half the operations untraced
// on one store, the same half traced on another, then the layer replay.
func (e *env) traceLocal() (*report, error) {
	ops := e.opsFor(localOpsPerSecond) / 2
	plain := newRecorder(e.seed)
	lb, _, wallU, err := e.localRun(plain, nil, ops, false)
	if err != nil {
		return nil, err
	}
	lb.close()

	tr := newTracer()
	o := outcome{rec: newRecorder(e.seed)}
	lb, secs, wall, err := e.localRun(o.rec, tr, ops, false)
	if err != nil {
		return nil, err
	}
	defer lb.close()
	o.setups, o.wall, o.done = []float64{secs}, wall, o.rec.okTimed
	kv := lb.store.KV().Stats()
	disk, _ := dirBytes(filepath.Join(lb.dir, "store"))
	var open []float64
	o.toGate, open = lb.crashCycles(2, workload.NewRand(e.seed^0x6a7e))
	o.recall = lb.sweep()
	o.ghosts = lb.or.unresolved()

	o.rec.absorb(plain)
	r := buildReport("local-store", e, o)
	r.Traced = true
	pl := map[string]metric{
		"kvstore.flushes":     {float64(kv.Flushes), "count"},
		"kvstore.compactions": {float64(kv.Compactions), "count"},
		// Directory bytes over the encoded tuple sets handed to the store.
		"kvstore.space_amp":       {disk / lb.userBytes, "ratio"},
		"kvstore.entries_per_put": {float64(kv.TableEntries+int64(kv.MemtableKeys)) / float64(len(lb.ids)), "count"},
		"core.crash_open_ms":      {median(open), "ms"},
	}
	pl["driver.trace_overhead_pct"] = overheadPct(float64(plain.okTimed)/wallU, float64(o.done)/wall)
	if err := e.replayLayers(tr, pl); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	r.PerLayer = pl
	r.attachTrace(tr)
	return r, nil
}

// copyDir copies the regular files of src (one level) into a new dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
