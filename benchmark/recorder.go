package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pass/internal/wire"
)

// recorder collects what every operation of a run reports: latencies of
// the measured ones by kind, and attempts and failures of all of them. A
// failure is an error, a timeout or a wrong answer; the first few are
// kept with their operation so the report can print them.
type recorder struct {
	seed uint64

	mu        sync.Mutex
	lat       map[string]samples
	okTimed   int // measured operations that completed and verified
	attempted int
	failed    int
	timeouts  int
	failures  []string
}

func newRecorder(seed uint64) *recorder {
	return &recorder{seed: seed, lat: make(map[string]samples)}
}

// done records one finished operation. what describes it for the failure
// list (built only on failure); measured says whether its latency belongs
// to the measured phase.
func (r *recorder) done(kind string, what func() string, elapsed time.Duration, measured bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if errors.Is(err, wire.ErrTimeout) {
			r.timeouts++
		}
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf("seed %d: %s %s: %v", r.seed, kind, what(), err))
		}
	}
	if measured {
		// A failed operation keeps its latency: it took that long to fail.
		r.lat[kind] = append(r.lat[kind], float64(elapsed)/float64(time.Millisecond))
		// Ticks are timed but are not client operations: ops_s counts
		// puts, gets and queries over a wall time that includes the ticks.
		if err == nil && kind != "tick" {
			r.okTimed++
		}
	}
}

// fail records a failure that is not one operation (a counter assertion,
// a node left catching up).
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("seed %d: ", r.seed)+fmt.Sprintf(format, args...))
	}
}

// absorb adds another recorder's attempts and failures (not its
// latencies): the untraced half of a traced run fails the run too.
func (r *recorder) absorb(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
}

// opRunner times operations for a bench: it owns the recorder and the
// tracer (nil when the run is untraced).
type opRunner struct {
	rec *recorder
	tr  *tracer
}

// timeOp runs one operation. call makes the request to the system, under
// a root span, and returns how to verify the answer; the latency runs
// from start (the due time in an open loop, so queueing counts) to the
// moment call returns, so the driver's checking is never charged to the
// system. The check then runs under a driver.verify span.
func (o opRunner) timeOp(kind string, what func() string, start time.Time, measured bool, call func(root int) (verify func() error, err error)) bool {
	root := -1
	if o.tr != nil {
		root = o.tr.begin("op."+kind, -1)
	}
	verify, err := call(root)
	elapsed := time.Since(start)
	if err == nil && verify != nil {
		v := o.tr.begin("driver.verify", root)
		err = verify()
		o.tr.end(v)
	}
	o.tr.end(root)
	o.rec.done(kind, what, elapsed, measured, err)
	return err == nil
}
