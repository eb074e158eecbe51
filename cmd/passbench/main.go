// Command passbench runs the reproduction's experiment suite (E1–E18) and
// prints the result tables. It is the one way to run an experiment.
//
// Usage:
//
//	passbench [-run E5,e7] [-scale 1.0] [-json results.json]
//
// Each experiment maps to one claim of the paper (see the README experiment
// map). -run takes IDs in any case; an unknown ID exits 2 and lists the
// available ones. The default scale (1.0) is the full configuration;
// smaller scales run proportionally smaller workloads. Sweep cells run on
// all cores, which leaves every table byte-identical to a serial run.
// -json additionally writes every experiment's wall-clock and scalar
// findings to a machine-readable file; the committed BENCH_<n>.json
// baselines are such files, and cmd/benchcheck compares against them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pass/internal/harness"
)

// jsonResult is the machine-readable form of one experiment's outcome.
// Millis and PeakGoroutines come from harness.Instrument: wall-clock for
// the perf gate, sampled peak goroutines as an ops observation (the
// parallel cell runner should bound fan-out near GOMAXPROCS).
type jsonResult struct {
	ID             string             `json:"id"`
	Title          string             `json:"title"`
	Millis         int64              `json:"millis"`
	PeakGoroutines int                `json:"peak_goroutines"`
	Findings       map[string]float64 `json:"findings"`
}

// jsonReport is the envelope written by -json.
type jsonReport struct {
	Scale       float64      `json:"scale"`
	TotalMillis int64        `json:"total_millis"`
	Results     []jsonResult `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the selected experiments and
// returns the exit code (0 ok, 1 an experiment or the -json write failed,
// 2 a usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("passbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	jsonPath := fs.String("json", "", "also write findings as JSON to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: passbench [-run E5,e7] [-scale 1.0] [-json results.json]")
		fs.PrintDefaults()
		printAvailable(stderr)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	runner := harness.NewRunner(harness.Scale(*scale))

	var selected []harness.Experiment
	if *runList == "" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			exp, ok := harness.Lookup(strings.ToUpper(id))
			if !ok {
				fmt.Fprintf(stderr, "passbench: unknown experiment %q\n", id)
				printAvailable(stderr)
				return 2
			}
			selected = append(selected, exp)
		}
	}

	fmt.Fprintf(stdout, "PASS reproduction experiment suite (scale %.2f)\n", *scale)
	fmt.Fprintf(stdout, "paper: Provenance-Aware Sensor Data Storage, NetDB/ICDE 2005\n\n")

	report := jsonReport{Scale: *scale}
	failed := false
	for _, exp := range selected {
		var res *harness.Result
		wallMs, peak, err := harness.Instrument(func() error {
			var runErr error
			res, runErr = exp.Run(runner)
			return runErr
		})
		if err != nil {
			fmt.Fprintf(stderr, "%s FAILED: %v\n", exp.ID, err)
			failed = true
			continue
		}
		fmt.Fprintln(stdout, res.String())
		fmt.Fprintf(stdout, "(%s completed in %dms, peak %d goroutines)\n\n", exp.ID, wallMs, peak)
		report.TotalMillis += wallMs
		report.Results = append(report.Results, jsonResult{
			ID:             res.ID,
			Title:          res.Title,
			Millis:         wallMs,
			PeakGoroutines: peak,
			Findings:       res.Findings,
		})
	}
	if failed {
		// Never write a partial findings file: a baseline missing failed
		// experiments' rows would read as trustworthy data downstream.
		if *jsonPath != "" {
			fmt.Fprintf(stderr, "passbench: not writing %s: some experiments failed\n", *jsonPath)
		}
		return 1
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "passbench:", err)
			return 1
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "passbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "findings written to %s\n", *jsonPath)
	}
	return 0
}

// printAvailable lists the experiment IDs that -run accepts.
func printAvailable(w io.Writer) {
	fmt.Fprint(w, "available:")
	for _, e := range harness.All() {
		fmt.Fprintf(w, " %s", e.ID)
	}
	fmt.Fprintln(w)
}
