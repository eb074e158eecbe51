// Command benchmark is the repository's benchmark: four workloads against
// the real thing — `passd node` processes booted through
// internal/harness/cluster and driven over internal/node.Client, and an
// in-process core.Store — with end-to-end metrics from an untraced run
// and per-layer metrics from a traced one. See README.md in this
// directory and BENCHMARK.json at the repository root.
//
//	go run -C benchmark . -workload passnet-ingest -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
)

// env is what one invocation shares across its runs.
type env struct {
	workDir string // scratch for this invocation, removed on every exit path
	seed    uint64
	seconds int
	scale   float64 // operation-count multiplier; 1 except in the smoke test
	cpus    cpuPlan

	mu      sync.Mutex
	benches map[*clusterBench]bool // booted clusters not yet closed
}

func (e *env) track(b *clusterBench) {
	e.mu.Lock()
	e.benches[b] = true
	e.mu.Unlock()
}

// untrack reports whether b was still tracked (so close runs once).
func (e *env) untrack(b *clusterBench) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	was := e.benches[b]
	delete(e.benches, b)
	return was
}

// cleanup reaps every node process still running and removes the work
// dir. It runs on normal return, on error and on SIGINT/SIGTERM.
func (e *env) cleanup() {
	e.mu.Lock()
	live := make([]*clusterBench, 0, len(e.benches))
	for b := range e.benches {
		live = append(live, b)
	}
	e.benches = map[*clusterBench]bool{}
	e.mu.Unlock()
	for _, b := range live {
		b.kill()
	}
	os.RemoveAll(e.workDir)
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "passd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/passd above the working directory: run from inside the repository checkout")
		}
		dir = parent
	}
}

// newEnv prepares the scratch directory (.bench_build in the checkout:
// the benchmark writes nowhere else) and builds passd once, untimed.
func newEnv(seed uint64, seconds int) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	if os.Getenv("PASSD_BIN") == "" {
		bin := filepath.Join(build, "passd")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/passd")
		cmd.Dir = root
		if outp, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("build passd: %v\n%s", err, outp)
		}
		os.Setenv("PASSD_BIN", bin) // what internal/harness/cluster boots
	}
	work, err := os.MkdirTemp(build, "run-*")
	if err != nil {
		return nil, err
	}
	return &env{workDir: work, seed: seed, seconds: seconds, scale: 1, cpus: planCPUs(), benches: map[*clusterBench]bool{}}, nil
}

// workloadNames lists the four workloads in running order.
func workloadNames() []string {
	var names []string
	for _, w := range clusterWorkloads {
		names = append(names, w.name)
	}
	return append(names, "local-store")
}

// runWorkload runs one workload once, untraced or traced.
func (e *env) runWorkload(name string, traced bool) (*report, error) {
	if name == "local-store" {
		if traced {
			return e.traceLocal()
		}
		return e.runLocal()
	}
	for _, w := range clusterWorkloads {
		if w.name == name {
			defer e.cpus.pinDriver()()
			if traced {
				return e.traceCluster(w)
			}
			return e.runCluster(w)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v and all)", name, workloadNames())
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	if !r.Traced {
		for _, d := range endToEnd {
			l.Metrics[d.name] = metric{r.EndToEnd[d.name].Value, d.unit}
		}
		return l
	}
	for _, d := range perLayer {
		l.Metrics[d.name] = metric{r.PerLayer[d.name].Value, d.unit}
	}
	return l
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: passnet-ingest, passnet-serve, dht-mixed, local-store or all")
	seed := fs.Uint64("seed", 1, "seed of the input generator (record digests, key draws, operation order)")
	seconds := fs.Int("seconds", 10, "length of the measured phase at the commit that added the benchmark; sets the operation count")
	trace := fs.Int("trace", 0, "1: traced run (spans, counters, layer replay; per-layer metrics); 0: untraced (end-to-end metrics)")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans as JSON lines to this file (default: <workload>.trace.jsonl in the scratch dir, removed on exit)")
	jsonOut := fs.String("json", "", "also write every report, informational metrics included, to this file as JSON")
	repeat := fs.Int("repeat", 1, "calibration: run each workload this many times on consecutive seeds and print each metric's median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; -h lists the flags (-trace takes 0 or 1)")
		return 2
	}

	e, err := newEnv(*seed, *seconds)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer e.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()

	fmt.Fprintf(stdout, "benchmark: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "benchmark: %d durable nodes (page-cache durability, no fsync), %d clients, loopback only, no injected delay or loss\n",
		clusterNodes, clients)
	fmt.Fprintf(stdout, "benchmark: %v\n", e.cpus)

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	var reports []*report
	ok := true
	for _, name := range names {
		var runs []*report
		for i := 0; i < *repeat; i++ {
			e.seed = *seed + uint64(i)
			r, err := e.runWorkload(name, *trace == 1)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			r.print(stdout)
			if r.Traced {
				path := *traceOut
				if path == "" {
					path = filepath.Join(e.workDir, name+".trace.jsonl")
				}
				counters := map[string]float64{}
				for n, m := range r.PerLayer {
					counters[n] = m.Value
				}
				if err := writeTrace(path, r.spans, counters); err != nil {
					fmt.Fprintln(stderr, "benchmark: write trace:", err)
					return 1
				}
				fmt.Fprintf(stdout, "-- %d spans written to %s\n", len(r.spans), path)
			}
			ok = ok && r.Correct
			runs = append(runs, r)
		}
		if *repeat > 1 {
			printSpread(stdout, name, runs)
		}
		reports = append(reports, runs...)
	}
	if *jsonOut != "" {
		b, _ := json.MarshalIndent(reports, "", "  ")
		if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	// One result line per report; the last line of standard output is the
	// last run's, which with one workload and no -repeat is the only one.
	for _, r := range reports {
		b, _ := json.Marshal(r.line())
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if !ok {
		return 1
	}
	return 0
}
