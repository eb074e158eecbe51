package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pass/internal/provenance"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.90, true}, {99, 0.90, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{10000, 0.999, true}, {9999, 0.999, false},
		{0, 0.5, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	// 1,500 samples carry a p99 (15 beyond) but not a p999.
	s := make(samples, 1500)
	for i := range s {
		s[i] = float64(i + 1)
	}
	m := map[string]metric{}
	latencyMetrics("put", s, m)
	if m["put_p50_ms"].Value != 750 || m["put_p99_ms"].Value != 1485 {
		t.Errorf("p50 %v p99 %v, want 750 and 1485", m["put_p50_ms"].Value, m["put_p99_ms"].Value)
	}
	if _, ok := m["put_p999_ms"]; ok {
		t.Error("p999 reported with only one sample beyond it")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	if s := relSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(s-1) > 1e-12 {
		t.Errorf("relSpread = %v, want 1", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, ID: 1, Req: 1},
		{Name: "a", Start: 10, End: 30, ID: 2, Parent: 1, Req: 1},
		{Name: "b", Start: 20, End: 50, ID: 3, Parent: 1, Req: 1}, // overlaps a: 10..50 counted once
		{Name: "a", Start: 60, End: 70, ID: 4, Parent: 1, Req: 1},
		{Name: "b", Start: 90, End: 120, ID: 5, Parent: 1, Req: 1}, // runs past its parent: only 90..100 covers it
		{Name: "c", Start: 22, End: 28, ID: 6, Parent: 3, Req: 1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op": 40, "a": 30, "b": 54, "c": 6}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %q = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerLinksSpans(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", -1)) // a nil tracer is tracing switched off
	tr := newTracer()
	root := tr.begin("op.put", -1)
	child := tr.begin("wire.request", root)
	tr.end(child)
	tr.end(root)
	r, c := tr.spans[root], tr.spans[child]
	if c.Parent != r.ID || c.Req != r.ID || r.Req != r.ID || r.Parent != 0 {
		t.Errorf("root %+v child %+v", r, c)
	}
	if c.Start < r.Start || c.End > r.End || r.End == 0 {
		t.Errorf("child %+v not inside root %+v", c, r)
	}
}

func testID(b byte) provenance.ID { return provenance.ID{b} }

func TestOracle(t *testing.T) {
	o := newOracle(2)
	a, b, c, other := testID(1), testID(2), testID(3), testID(4)
	o.issue(a, 0)
	o.issue(b, 0)
	o.issue(c, 0)
	o.issue(other, 1)
	o.settle(a, b, other)
	mark := o.mark(0)
	if mark != 2 {
		t.Fatalf("mark = %d", mark)
	}
	ok := func(name string, got []provenance.ID, keep func(provenance.ID) bool) {
		t.Helper()
		if err := o.checkQuery(0, got, mark, keep); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	bad := func(name string, got []provenance.ID) {
		t.Helper()
		if err := o.checkQuery(0, got, mark, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok("exact", []provenance.ID{b, a}, nil)
	ok("with a put in flight", []provenance.ID{a, b, c}, nil) // c issued, not settled: may or may not show
	ok("narrowed by a conjunct", []provenance.ID{a}, func(id provenance.ID) bool { return id == a })
	bad("settled record missing", []provenance.ID{a})
	bad("record of another key", []provenance.ID{a, b, other})
	bad("duplicate", []provenance.ID{a, b, a})

	// A record settled after the mark is not owed to the query.
	o.settle(c)
	ok("settled after the query was sent", []provenance.ID{a, b}, nil)

	// An ID the oracle has not heard of yet is judged at the end of the run.
	late, ghost := testID(5), testID(6)
	ok("unknown ids deferred", []provenance.ID{a, b, late, ghost}, nil)
	o.issue(late, 0)
	if u := o.unresolved(); len(u) != 1 || u[0] != ghost.Short() {
		t.Errorf("unresolved = %v, want only %s", u, ghost.Short())
	}
}

// TestOpenLoopChargesFromDueTime stalls one request for 200 ms. With one
// request allowed in flight the requests behind it cannot be sent, and
// their latency — timed from when they were due — must show the wait.
// With room in flight they are sent on schedule and finish at once: the
// generator never waits for an answer.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	const n, rate, stall = 12, 200.0, 200 * time.Millisecond // one request per 5 ms
	run := func(inflight int) []time.Duration {
		lat := make([]time.Duration, n)
		var mu sync.Mutex
		openLoop(n, rate, 1, inflight, func(i int, due time.Time) {
			if i == 0 {
				time.Sleep(stall)
			}
			mu.Lock()
			lat[i] = time.Since(due)
			mu.Unlock()
		})
		return lat
	}
	blocked := run(1)
	for i := 1; i < n; i++ {
		// Request i was due i*5 ms in; it could not leave before 200 ms.
		if want := stall - time.Duration(i)*5*time.Millisecond - 10*time.Millisecond; blocked[i] < want {
			t.Errorf("cap 1: request %d charged %v, want at least %v", i, blocked[i], want)
		}
	}
	free := run(n)
	for i := 1; i < n; i++ {
		if free[i] > 50*time.Millisecond {
			t.Errorf("cap %d: request %d charged %v though nothing held it", n, i, free[i])
		}
	}
	if free[0] < stall {
		t.Errorf("stalled request charged %v, want at least %v", free[0], stall)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the tables the
// result line is built from in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d is %q, code has %q", i, w.Name, names[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, code has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, code has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmokeAllWorkloads runs every workload end to end at about 1% of its
// operation count: real passd processes, restart cycles, the sweep, and
// the answer checks. Short runs lack the samples for a p99, so the test
// looks at failures and recall, not at report.Correct.
func TestSmokeAllWorkloads(t *testing.T) {
	e, err := newEnv(7, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	e.scale = 0.01
	check := func(r *report) {
		t.Helper()
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", r.Workload, r.Failed, r.Attempted, r.Failures)
		}
		if rc, ok := r.Info["recall"]; !ok || rc.Value != 1 {
			t.Errorf("%s: recall %v, want 1", r.Workload, rc.Value)
		}
		for _, name := range []string{"setup_s", "ops_s", "put_p50_ms", "get_p50_ms", "query_p50_ms", "restart_to_gate_ms"} {
			if r.EndToEnd[name].Value <= 0 {
				t.Errorf("%s: no %s", r.Workload, name)
			}
		}
	}
	for _, name := range workloadNames() {
		r, err := e.runWorkload(name, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(r)
	}
	if testing.Short() {
		return
	}
	// One traced run: spans, counters and the whole layer replay.
	r, err := e.runWorkload("dht-mixed", true)
	if err != nil {
		t.Fatal(err)
	}
	check(r)
	for _, d := range perLayer {
		if _, ok := r.PerLayer[d.name]; !ok && d.name != "kvstore.flushes" && d.name != "kvstore.compactions" && d.name != "kvstore.space_amp" {
			t.Errorf("traced dht-mixed lacks %s", d.name)
		}
	}
	if len(r.spans) == 0 || r.SelfTime["wire.request"].Value <= 0 {
		t.Errorf("no spans (%d) or no self time for wire.request", len(r.spans))
	}
	path := filepath.Join(e.workDir, "smoke.jsonl")
	if err := writeTrace(path, r.spans, map[string]float64{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}
