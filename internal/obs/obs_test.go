package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"pass/internal/metrics"
	"pass/internal/trace"
)

func TestWindowedGate(t *testing.T) {
	w := NewWindowed(0.95, 3)
	for _, r := range []float64{1, 1, 0.9, 0.9, 0.9, 1, 0.9, 1} {
		w.Add(r)
	}
	if !w.OK() || w.Worst() != 3 || w.Breaches() != 0 {
		t.Fatalf("streak of 3 within budget 3 should pass: worst=%d breaches=%d", w.Worst(), w.Breaches())
	}
	for _, r := range []float64{0.9, 0.9, 0.9, 0.9, 1} {
		w.Add(r)
	}
	if w.OK() || w.Worst() != 4 || w.Breaches() != 1 {
		t.Fatalf("streak of 4 over budget 3 should breach once: worst=%d breaches=%d", w.Worst(), w.Breaches())
	}
	if w.MinRecall() != 0.9 || w.LastRecall() != 1 {
		t.Fatalf("min/last = %v/%v", w.MinRecall(), w.LastRecall())
	}
	// A streak interrupted by an iteration boundary does not accumulate.
	w2 := NewWindowed(0.95, 2)
	w2.Add(0.9)
	w2.Add(0.9)
	w2.EndIteration()
	w2.Add(0.9)
	if !w2.OK() {
		t.Fatal("iteration boundary must reset the streak")
	}
}

// TestSoakCollectsMetrics runs one short iteration per roster model and
// checks the registry carries the advertised series and the trace is
// readable JSONL.
func TestSoakCollectsMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := trace.New(2048)
	for _, model := range []string{"central", "central-adm", "softstate", "dht", "passnet", "passnet-eff"} {
		st := runOneSoak(t, reg, tr, model)
		if !st.Done || st.Err != "" {
			t.Fatalf("%s: soak did not finish cleanly: %+v", model, st)
		}
		if !st.GateOK {
			t.Fatalf("%s: windowed gate breached: %+v", model, st)
		}
		if st.MinRecall >= 1 && model != "central" {
			t.Logf("%s: recall never dipped (min %v) — soak may be too gentle", model, st.MinRecall)
		}
	}

	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	out := expo.String()
	for _, series := range []string{
		`pass_rounds_total{model="dht"}`,
		`pass_net_bytes_total{model="passnet-eff"}`,
		`pass_sites_up{model="central"}`,
		`pass_recall{model="softstate"}`,
		`pass_recall_probe_count{model="passnet"}`,
		`pass_fault_events_total{model="dht",op="crash"}`,
		`pass_gossip_bytes_total{model="passnet-eff"}`,
		`pass_outbox_depth{model="passnet-eff"}`,
		`pass_members{model="dht"}`,
		`pass_soak_gate_ok{model="passnet"}`,
		`pass_site_bytes_out{model="dht",site="0"}`,
		`pass_soak_iterations_total{model="central"}`,
		`pass_latency_publish_ms_count{model="central"}`,
		`pass_latency_publish_ms{model="passnet",quantile="0.999"}`,
		`pass_admission_offered_total{model="central-adm"}`,
		`pass_admission_served_total{model="central-adm"}`,
		`pass_admission_queue_items{model="central-adm"}`,
		`pass_pubs_shed_total{model="central-adm"}`,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("exposition missing series %s", series)
		}
	}

	if tr.Len() == 0 {
		t.Fatal("no trace lines")
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(tr.String(), "\n"), "\n") {
		var e trace.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("corrupt trace line %q: %v", line, err)
		}
		kinds[e.Kind]++
	}
	for _, k := range []string{"fault", "round", "soak"} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %q lines (kinds: %v)", k, kinds)
		}
	}
}

// TestSoakDeterministicAcrossRuns: two same-seed soaks on fresh
// registries produce identical metric snapshots — the daemon-facing
// determinism claim.
func TestSoakDeterministicAcrossRuns(t *testing.T) {
	snap := func() string {
		reg := metrics.NewRegistry()
		st := runOneSoak(t, reg, nil, "dht")
		if st.Err != "" {
			t.Fatal(st.Err)
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := snap(), snap()
	if a != b {
		t.Fatalf("same-seed soak produced different metric snapshots:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

func runOneSoak(t *testing.T, reg *metrics.Registry, tr *trace.Log, model string) SoakStatus {
	t.Helper()
	cfg := SoakConfig{
		Model: model, Seed: 41, Sites: 16, SitesPerZone: 4,
		Rounds: 12, PubsPerRound: 3, CrashEvery: 5, DownFor: 3,
		LossEvery: -1, MaxIterations: 1,
	}
	s, err := NewSoak(cfg, reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run(context.Background())
}

func TestNewSoakRejectsUnknownModel(t *testing.T) {
	_, err := NewSoak(SoakConfig{Model: "nope"}, metrics.NewRegistry(), nil)
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	if !strings.Contains(err.Error(), "passnet-eff") {
		t.Fatalf("error does not list the accepted names: %v", err)
	}
}
