package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric of the contract in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports from an untraced run,
// in BENCHMARK.json's order. They are the ones all four workloads have
// and whose run-to-run spread stayed within bounds during calibration;
// the rest of ISSUE 12's fifteen are printed per workload as
// informational (see report.Info and README).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_s", "1/s"},
	{"put_p50_ms", "ms"},
	{"get_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"restart_to_gate_ms", "ms"},
}

// report is everything one run of one workload found.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	Info      map[string]metric `json:"informational,omitempty"`
	Samples   map[string]int    `json:"samples,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	SelfTime  map[string]metric `json:"self_time,omitempty"`

	spans []span
}

// outcome is what a workload's measured part hands to buildReport.
type outcome struct {
	rec     *recorder
	setups  []float64 // seconds, one per set-up repetition
	wall    float64   // seconds of the measured phase
	done    int       // client operations completed and verified in it
	toGate  []float64 // ms, one per restart cycle that met the gate
	recall  float64
	late    int      // open-loop sends that left the generator late
	sent    int      // open-loop sends in all (0 for a closed loop)
	ghosts  []string // oracle.unresolved at the end of the run
	invalid []string
}

// latencyMetrics turns one kind's samples into its p50 and the tail
// percentiles the sample supports (tailSupported), under <kind>_pNN_ms.
func latencyMetrics(kind string, s samples, into map[string]metric) {
	if len(s) == 0 {
		return
	}
	sorted := s.sortedCopy()
	into[kind+"_p50_ms"] = metric{percentile(sorted, 0.50), "ms"}
	for _, t := range []struct {
		q    float64
		name string
	}{{0.90, "p90"}, {0.99, "p99"}, {0.999, "p999"}} {
		if tailSupported(len(sorted), t.q) {
			into[kind+"_"+t.name+"_ms"] = metric{percentile(sorted, t.q), "ms"}
		}
	}
}

// buildReport derives the end-to-end metrics of a run. Every number a
// workload can produce goes to Info; the contract's subset is copied to
// EndToEnd, and a run that lacks one of those is not correct.
func buildReport(workload string, e *env, o outcome) *report {
	r := &report{
		Workload: workload, Seed: e.seed, Seconds: e.seconds,
		EndToEnd: map[string]metric{}, Info: map[string]metric{}, Samples: map[string]int{},
	}
	rec := o.rec
	for _, id := range o.ghosts {
		rec.fail("a query answered %s, which was never put under the key asked for", id)
	}
	all := r.Info
	all["setup_s"] = metric{median(o.setups), "s"}
	if o.wall > 0 {
		all["ops_s"] = metric{float64(o.done) / o.wall, "1/s"}
	}
	for kind, s := range rec.lat {
		latencyMetrics(kind, s, all)
		r.Samples[kind] = len(s)
	}
	if len(o.toGate) > 0 {
		all["restart_to_gate_ms"] = metric{median(o.toGate), "ms"}
		r.Samples["restart"] = len(o.toGate)
	}
	r.Samples["setup"] = len(o.setups)
	if rec.attempted > 0 {
		all["fail_share"] = metric{float64(rec.failed) / float64(rec.attempted), "ratio"}
	}
	all["recall"] = metric{o.recall, "ratio"}
	if o.sent > 0 {
		share := float64(o.late) / float64(o.sent)
		all["driver.late_share"] = metric{share, "ratio"}
		if share > maxLateShare {
			// The generator, not the system, fell behind: the run says
			// nothing about the system and must be repeated.
			o.invalid = append(o.invalid, fmt.Sprintf("open-loop generator sent %.1f%% of requests late (limit %.0f%%)", 100*share, 100*maxLateShare))
		}
	}
	if o.recall != 1 {
		o.invalid = append(o.invalid, fmt.Sprintf("recall %.6f, want 1", o.recall))
	}
	for _, d := range endToEnd {
		m, ok := all[d.name]
		if !ok || m.Value <= 0 {
			o.invalid = append(o.invalid, "no value for "+d.name)
			continue
		}
		r.EndToEnd[d.name] = m
		delete(all, d.name)
	}
	r.Attempted, r.Failed = rec.attempted, rec.failed
	r.Failures = append(append([]string(nil), rec.failures...), o.invalid...)
	r.Correct = rec.failed == 0 && len(o.invalid) == 0
	return r
}

// attachTrace keeps the run's spans for the trace file and sums their self
// times by name for the report.
func (r *report) attachTrace(tr *tracer) {
	r.spans = tr.spans
	r.SelfTime = map[string]metric{}
	for name, d := range selfTimes(tr.spans) {
		r.SelfTime[name] = metric{float64(d) / float64(time.Millisecond), "ms"}
	}
}

// print writes the report for a reader: every metric by name with its
// unit, and the sample count beside every timing.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed=%d seconds=%d traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	section := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "-- %s\n", title)
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", n, ms[n].Value, ms[n].Unit, r.sampleNote(n))
		}
	}
	section("end to end (gated by BENCHMARK.json)", r.EndToEnd)
	section("end to end (informational)", r.Info)
	section("per layer", r.PerLayer)
	section("span self time by name", r.SelfTime)
	fmt.Fprintf(w, "-- attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
}

// sampleNote is the "n=" remark for a timing metric.
func (r *report) sampleNote(name string) string {
	for kind, n := range r.Samples {
		if len(name) > len(kind) && name[:len(kind)+1] == kind+"_" {
			return fmt.Sprintf(" n=%d", n)
		}
	}
	return ""
}

// perLayer are the metrics every workload reports from a traced run, in
// BENCHMARK.json's order: the layer replay's timings and allocations,
// which every workload measures, and the counts taken at the boundaries
// of the traced phase, which are 0 on a workload that does not touch the
// layer. A few more (cluster.boot_ms, cluster.restart_exec_ms, …) exist
// on some workloads only and are printed without being part of the
// contract.
var perLayer = []metricDef{
	{"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"}, {"wire.encode_allocs", "count"}, {"wire.decode_allocs", "count"},
	{"wire.rtt_us", "us"}, {"wire.rtt_allocs", "count"}, {"wire.msgs_per_op", "count"}, {"wire.bytes_per_op", "B"},
	{"wire.dropped", "count"}, {"wire.timeouts", "count"},
	{"provenance.encode_ns", "ns"}, {"provenance.decode_ns", "ns"}, {"provenance.id_ns", "ns"}, {"provenance.decode_allocs", "count"},
	{"node.put_us", "us"}, {"node.put_durable_us", "us"}, {"node.delta_us", "us"}, {"node.tick_us_per_delta", "us"},
	{"node.get_local_us", "us"}, {"node.get_remote_us", "us"}, {"node.query_us", "us"}, {"node.dht_put_us", "us"}, {"node.store_us", "us"},
	{"wal.append_ns", "ns"}, {"wal.append_allocs", "count"}, {"wal.append_sync_us", "us"}, {"wal.replay_ns_per_rec", "ns"},
	{"wal.appends_per_put", "count"}, {"wal.bytes_per_put", "B"},
	{"durable.compactions_per_kput", "count"}, {"durable.compact_ms", "ms"}, {"durable.snapshot_bytes_per_record", "B"},
	{"durable.disk_bytes_per_record", "B"}, {"durable.recover_ms", "ms"},
	{"siteview.apply_ns", "ns"}, {"siteview.apply_allocs", "count"}, {"siteview.candidates_ns", "ns"}, {"siteview.locate_ns", "ns"},
	{"siteview.encode_ms", "ms"}, {"siteview.decode_ms", "ms"},
	{"kvstore.put_ns", "ns"}, {"kvstore.get_mem_ns", "ns"}, {"kvstore.get_table_ns", "ns"}, {"kvstore.scan_ns_per_key", "ns"},
	{"kvstore.flushes", "count"}, {"kvstore.compactions", "count"}, {"kvstore.compact_ms", "ms"}, {"kvstore.max_stall_ms", "ms"},
	{"kvstore.space_amp", "ratio"},
	{"index.lookup_attr_us", "us"}, {"index.has_attr_ns", "ns"}, {"index.time_overlap_us", "us"},
	{"index.ancestors_cold_us", "us"}, {"index.ancestors_warm_ns", "ns"},
	{"query.parse_ns", "ns"}, {"query.exec_attr_us", "us"}, {"query.exec_and_us", "us"}, {"query.exec_ancestors_us", "us"},
	{"core.ingest_us", "us"}, {"core.derive_us", "us"}, {"core.get_record_us", "us"}, {"core.ingest_allocs", "count"},
	{"driver.late_share", "ratio"}, {"driver.trace_overhead_pct", "%"},
}

// printSpread is the calibration table of -repeat: for every metric of
// the runs, its median, quartiles and interquartile distance as a share
// of the median — the number the bounds in BENCHMARK.json are set from.
func printSpread(w io.Writer, workload string, runs []*report) {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for _, ms := range []map[string]metric{r.EndToEnd, r.Info, r.PerLayer} {
			for n, m := range ms {
				vals[n] = append(vals[n], m.Value)
				units[n] = m.Unit
			}
		}
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n== %s: spread over %d runs\n  %-34s %12s %12s %12s %8s\n", workload, len(runs), "metric", "q1", "median", "q3", "spread")
	for _, n := range names {
		q1, q2, q3 := quartiles(vals[n])
		fmt.Fprintf(w, "  %-34s %12.4f %12.4f %12.4f %7.1f%% %s (n=%d)\n", n, q1, q2, q3, 100*relSpread(vals[n]), units[n], len(vals[n]))
	}
}
