// Command benchcheck compares a fresh passbench -json report against the
// committed baseline (BENCH_3.json) and fails on regressions, giving the
// repo a perf trajectory that CI can enforce.
//
// Usage:
//
//	benchcheck -baseline BENCH_3.json -current BENCH.json [-max-ratio 2.5] [-slack-ms 300]
//
// Checks, in order of severity:
//
//   - Baseline integrity: the baseline itself must contain a row for
//     every experiment registered in the harness. A baseline missing
//     registered rows is stale or was recorded from a partially failed
//     run, and comparing against it would silently shrink the gate —
//     benchcheck refuses and tells you to regenerate with `make bench`.
//   - Coverage: every experiment in the baseline must appear in the
//     current report — a silently dropped experiment is the worst kind of
//     regression. New experiments in the current report are fine (they
//     join the baseline when it is next regenerated).
//   - Runtime: an experiment whose wall-clock exceeds
//     baseline*max-ratio + slack-ms regresses the build. The ratio is
//     deliberately generous: the baseline may have been recorded on
//     different hardware, and wall-clock is noisy — this gate catches
//     accidental O(n) blowups (the feddb/hier probe-loop class of bug),
//     not single-digit-percent drift.
//   - Invariants: machine-independent sanity on the current findings —
//     every recall_* finding is a fraction in [0, 1], and every
//     recall_*_l0 (pristine-network survivability row) is exactly 1.
//     These hold on any hardware at any scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pass/internal/harness"
)

type jsonResult struct {
	ID       string             `json:"id"`
	Title    string             `json:"title"`
	Millis   int64              `json:"millis"`
	Findings map[string]float64 `json:"findings"`
}

type jsonReport struct {
	Scale   float64      `json:"scale"`
	Results []jsonResult `json:"results"`
}

func load(path string) (*jsonReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep jsonReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_3.json", "committed baseline report")
	currentPath := flag.String("current", "BENCH.json", "fresh passbench -json report")
	maxRatio := flag.Float64("max-ratio", 2.5, "fail when current millis exceed baseline*ratio+slack")
	slackMs := flag.Int64("slack-ms", 300, "absolute slack added to every runtime budget")
	flag.Parse()

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	if base.Scale != cur.Scale {
		fmt.Fprintf(os.Stderr, "benchcheck: scale mismatch: baseline %.2f vs current %.2f — not comparable\n",
			base.Scale, cur.Scale)
		os.Exit(1)
	}

	// Baseline integrity: a row for every registered experiment. Without
	// this, a baseline recorded from a failed or older run would quietly
	// exempt the missing experiments from the runtime gate forever.
	baseByID := make(map[string]bool, len(base.Results))
	for _, b := range base.Results {
		baseByID[b.ID] = true
	}
	var missing []string
	for _, exp := range harness.All() {
		if !baseByID[exp.ID] {
			missing = append(missing, exp.ID)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr,
			"benchcheck: baseline %s has no row for registered experiment(s) %s — the baseline is stale or was recorded from a failed run; regenerate it with `make bench` and commit the result\n",
			*baselinePath, strings.Join(missing, ", "))
		os.Exit(1)
	}

	curByID := make(map[string]jsonResult, len(cur.Results))
	for _, r := range cur.Results {
		curByID[r.ID] = r
	}

	var failures []string
	for _, b := range base.Results {
		c, ok := curByID[b.ID]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from current report", b.ID))
			continue
		}
		budget := int64(float64(b.Millis)**maxRatio) + *slackMs
		status := "ok"
		if c.Millis > budget {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %dms exceeds budget %dms (baseline %dms × %.1f + %dms)",
				b.ID, c.Millis, budget, b.Millis, *maxRatio, *slackMs))
		}
		fmt.Printf("%-4s %6dms (baseline %6dms, budget %6dms) %s\n", b.ID, c.Millis, b.Millis, budget, status)
		delete(curByID, b.ID)
	}
	for id := range curByID {
		fmt.Printf("%-4s new experiment (no baseline yet)\n", id)
	}

	for _, r := range cur.Results {
		for name, v := range r.Findings {
			if !strings.HasPrefix(name, "recall_") {
				continue
			}
			if v < 0 || v > 1 {
				failures = append(failures, fmt.Sprintf("%s: %s = %v out of [0,1]", r.ID, name, v))
			}
			if strings.HasSuffix(name, "_l0") && v != 1 {
				failures = append(failures, fmt.Sprintf("%s: %s = %v, want 1 on a pristine network", r.ID, name, v))
			}
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchcheck: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  -", f)
		}
		os.Exit(1)
	}
	fmt.Printf("\nbenchcheck: %d experiments within budget, invariants hold\n", len(base.Results))
}
