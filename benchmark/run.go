package main

import (
	"fmt"
	"path/filepath"
	"time"

	"pass/internal/workload"
)

const (
	// setupReps is how often a run sets up a cluster (boot, roster, first
	// tick, preload, warm-up): setup_s is the median, so one slow fork or
	// a cold page cache does not decide it. Only the last set-up is
	// measured on. Opening a local store takes 20 ms, not most of a
	// second, so local-store can afford more repetitions and needs them.
	setupReps      = 5
	localSetupReps = 9
	// restartCycleCount is how many kill-restart-gate cycles give
	// restart_to_gate_ms its median.
	restartCycleCount = 15
)

// opsFor turns -seconds into a workload's fixed operation count.
func (e *env) opsFor(rate int) int {
	return max(clients*tickEvery, int(float64(rate*e.seconds)*e.scale))
}

// setUp boots a cluster and runs the load's preload and warm-up,
// returning the bench, the load and the seconds it all took.
func (e *env) setUp(w clusterWorkload, rec *recorder, tr *tracer) (*clusterBench, clusterLoad, float64, error) {
	t0 := time.Now()
	b, err := e.boot(w.mode, rec, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	load := w.load(e.seed)
	load.prepare(b)
	return b, load, time.Since(t0).Seconds(), nil
}

// measured is what one measured phase on one cluster produced.
type measured struct {
	wall          float64 // seconds
	done          int     // client operations completed and verified
	sent, late    int     // open loop: requests scheduled, and sent late
	before, after nodeCounters
}

func runMeasured(b *clusterBench, load clusterLoad, ops int) (measured, error) {
	var m measured
	var err error
	if m.before, err = b.counters(); err != nil {
		return m, err
	}
	done0 := b.rec.okTimed
	t0 := time.Now()
	m.sent, m.late = load.measure(b, ops)
	m.wall = time.Since(t0).Seconds()
	m.done = b.rec.okTimed - done0
	m.after, err = b.counters()
	return m, err
}

// into hands the phase's end-to-end numbers to the outcome.
func (m measured) into(o *outcome) {
	o.wall, o.done, o.sent, o.late = m.wall, m.done, m.sent, m.late
}

// finish runs what follows every measured phase: the restart cycles, the
// recall sweep, and the assertions on drops and catch-up.
func finish(b *clusterBench, cycles int, o *outcome) (exec []float64) {
	rng := workload.NewRand(b.env.seed ^ 0x6a7e)
	o.toGate, exec = b.restartCycles(cycles, 0, rng)
	o.recall = b.sweep()
	o.ghosts = b.or.unresolved()
	end, err := b.counters()
	switch {
	case err != nil:
		b.rec.fail("final counters: %v", err)
	case end.dropped != 0:
		b.rec.fail("wire.dropped = %v, want 0", end.dropped)
	case end.catchingUp != 0:
		b.rec.fail("%d node(s) left catching_up", end.catchingUp)
	case end.walErrors != 0:
		b.rec.fail("pass_wal_errors_total = %v, want 0", end.walErrors)
	}
	return exec
}

// runCluster is an untraced run of a cluster workload: setupReps set-ups,
// the measured phase on the last, then restart cycles and the sweep.
func (e *env) runCluster(w clusterWorkload) (*report, error) {
	o := outcome{rec: newRecorder(e.seed)}
	ops := e.opsFor(w.rate)
	var b *clusterBench
	var load clusterLoad
	for rep := 0; rep < setupReps; rep++ {
		if b != nil {
			b.close()
		}
		var secs float64
		var err error
		if b, load, secs, err = e.setUp(w, o.rec, nil); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, secs)
	}
	defer b.close()
	m, err := runMeasured(b, load, ops)
	if err != nil {
		return nil, err
	}
	m.into(&o)
	finish(b, restartCycleCount, &o)
	return buildReport(w.name, e, o), nil
}

// traceCluster is the traced run: half the operations untraced on one
// cluster, the same half traced on a second (their difference in ops_s is
// the tracing overhead), the counters of the traced half, two restart
// cycles, the sweep, and then the layer replay.
func (e *env) traceCluster(w clusterWorkload) (*report, error) {
	ops := e.opsFor(w.rate) / 2
	plain := newRecorder(e.seed)
	b, load, _, err := e.setUp(w, plain, nil)
	if err != nil {
		return nil, err
	}
	mu, err := runMeasured(b, load, ops)
	b.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	o := outcome{rec: newRecorder(e.seed)}
	b, load, secs, err := e.setUp(w, o.rec, tr)
	if err != nil {
		return nil, err
	}
	defer b.close()
	o.setups = []float64{secs}
	m, err := runMeasured(b, load, ops)
	if err != nil {
		return nil, err
	}
	m.into(&o)
	disk, snaps := dirBytes(filepath.Join(b.dir, "data"))
	exec := finish(b, 2, &o)
	b.close()
	o.rec.absorb(plain)

	r := buildReport(w.name, e, o)
	r.Traced = true
	done := float64(m.done)
	puts := float64(len(o.rec.lat["put"]))
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	pl := map[string]metric{
		"wire.msgs_per_op":                  {per(m.after.msgsIn-m.before.msgsIn, done), "count"},
		"wire.bytes_per_op":                 {per(m.after.bytesIn-m.before.bytesIn, done), "B"},
		"wire.dropped":                      {m.after.dropped, "count"},
		"wire.timeouts":                     {float64(o.rec.timeouts), "count"},
		"wal.appends_per_put":               {per(m.after.walAppends-m.before.walAppends, puts), "count"},
		"wal.bytes_per_put":                 {per(m.after.walBytes-m.before.walBytes, puts), "B"},
		"durable.compactions_per_kput":      {per(1000*(m.after.walCompact-m.before.walCompact), puts), "count"},
		"durable.snapshot_bytes_per_record": {per(snaps, m.after.records), "B"},
		"durable.disk_bytes_per_record":     {per(disk, m.after.records), "B"},
		"cluster.boot_ms":                   {b.bootMs, "ms"},
		"cluster.restart_exec_ms":           {median(exec), "ms"},
		"driver.late_share":                 {per(float64(o.late), float64(o.sent)), "ratio"},
	}
	pl["driver.trace_overhead_pct"] = overheadPct(float64(mu.done)/mu.wall, done/m.wall)
	if err := e.replayLayers(tr, pl); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	r.PerLayer = pl
	r.attachTrace(tr)
	return r, nil
}

// overheadPct is how much slower, in percent of the untraced rate, the
// traced half of a traced run went.
func overheadPct(untraced, traced float64) metric {
	if untraced <= 0 {
		return metric{0, "%"}
	}
	return metric{100 * (untraced - traced) / untraced, "%"}
}
