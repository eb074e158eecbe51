// Command passd is the PASS daemon, in two modes.
//
// `passd daemon` drives architecture models through seeded chaos-soak
// fault streams (package obs over package schedule) while serving the
// live metrics surface over HTTP — Prometheus text-format exposition on
// /metrics and a JSON soak/gate summary on /healthz — and optionally
// streaming the JSONL round trace to a file.
//
// `passd node` runs one REAL node (package node): a UDP wire endpoint
// serving put/get/query verbs plus the control plane the multi-process
// cluster harness drives (peer roster, ticks, drop rules, stats), with
// the same /metrics and /healthz HTTP surface. The node prints its
// bound addresses on stdout ("passd: node N listening on ADDR http
// ADDR") so a parent process can collect ephemeral ports.
//
// Usage:
//
//	passd daemon [flags]
//	passd node [flags]
//
// Daemon flags:
//
//	-addr       listen address (default 127.0.0.1:9464; port 0 picks one)
//	-models     comma-separated models to soak concurrently: any
//	            internal/arch/roster name, or central-adm (default
//	            passnet-eff)
//	-seed       base schedule seed (iteration i of each model uses seed+i)
//	-sites      topology size per model (default 16)
//	-rounds     simulated rounds per soak iteration (default 24)
//	-interval   wall-clock pacing per simulated round (default 250ms)
//	-duration   total soak budget; 0 runs exactly one iteration per model
//	-threshold  recall bar of the windowed gate (default 0.95)
//	-window     max consecutive below-threshold rounds (default downtime+3)
//	-trace      JSONL trace sink file ("" = in-memory ring only)
//
// Node flags:
//
//	-id      node ID (dense from 0; doubles as wire From and ring seat)
//	-mode    "passnet" or "dht" (default passnet)
//	-listen  UDP listen address (default 127.0.0.1:0)
//	-http    HTTP listen address for /metrics + /healthz ("" disables)
//	-data    data directory for WAL + snapshot durability ("" = in-memory
//	         only); a restarted node recovers its state from here
//	-fsync   fsync the WAL on every append (machine-crash durability)
//	-compact-every  WAL records between snapshot compactions (0 = default)
//
// Both modes shut down gracefully on SIGTERM/SIGINT: the daemon drains
// its soaks and flushes the -trace sink before exiting; the node closes
// its sockets. The daemon exits 0 when every model's windowed soak gate
// held ("recall never below the threshold for more than K consecutive
// rounds") and 1 on a breach, model error, or trace-sink failure — so a
// CI smoke job can assert the gate by exit code while scraping /metrics
// live.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"pass/internal/metrics"
	"pass/internal/node"
	"pass/internal/obs"
	"pass/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, nil))
}

// run is the testable entry point: ready (may be nil) receives the bound
// HTTP listen address once the serving surface is up. Returns the
// process exit code.
func run(args []string, stdout io.Writer, ready func(addr string)) int {
	if len(args) == 0 {
		fmt.Fprintln(stdout, "usage: passd daemon|node [flags]   (see -h for flags)")
		return 2
	}
	switch args[0] {
	case "daemon":
		return runDaemon(args[1:], stdout, ready)
	case "node":
		return runNode(args[1:], stdout, ready)
	default:
		fmt.Fprintln(stdout, "usage: passd daemon|node [flags]   (see -h for flags)")
		return 2
	}
}

func runDaemon(args []string, stdout io.Writer, ready func(addr string)) int {
	fs := flag.NewFlagSet("passd daemon", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9464", "HTTP listen address for /metrics and /healthz")
	models := fs.String("models", "passnet-eff", "comma-separated roster models to soak")
	seed := fs.Uint64("seed", 1, "base schedule seed")
	sites := fs.Int("sites", 16, "sites per model topology")
	rounds := fs.Int("rounds", 24, "rounds per soak iteration")
	pubs := fs.Int("pubs", 4, "publishes per round")
	interval := fs.Duration("interval", 250*time.Millisecond, "wall-clock pacing per simulated round")
	duration := fs.Duration("duration", 0, "total soak budget (0 = one iteration per model)")
	threshold := fs.Float64("threshold", 0.95, "windowed gate recall threshold")
	window := fs.Int("window", 0, "max consecutive below-threshold rounds (0 = downtime+3)")
	tracePath := fs.String("trace", "", "JSONL round-trace sink file")
	traceCap := fs.Int("trace-cap", trace.DefaultCap, "in-memory trace ring capacity (lines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	reg := metrics.NewRegistry()
	tr := trace.New(*traceCap)
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(stdout, "passd:", err)
			return 1
		}
		defer f.Close()
		traceFile = f
		tr.SetSink(f)
	}

	var soaks []*obs.Soak
	for _, name := range strings.Split(*models, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s, err := obs.NewSoak(obs.SoakConfig{
			Model: name, Seed: *seed, Sites: *sites,
			Rounds: *rounds, PubsPerRound: *pubs,
			Threshold: *threshold, MaxStreak: *window,
			Interval: *interval, Duration: *duration,
		}, reg, tr)
		if err != nil {
			fmt.Fprintln(stdout, "passd:", err)
			return 1
		}
		soaks = append(soaks, s)
	}
	if len(soaks) == 0 {
		fmt.Fprintln(stdout, "passd: no models to soak")
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stdout, "passd:", err)
		return 1
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		statuses := make([]obs.SoakStatus, len(soaks))
		healthy := true
		for i, s := range soaks {
			statuses[i] = s.Status()
			if !statuses[i].GateOK {
				healthy = false
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if !healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"healthy": healthy,
			"soaks":   statuses,
			"trace": map[string]any{
				"buffered": tr.Len(),
				"dropped":  tr.Dropped(),
			},
		})
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(stdout, "passd: serving /metrics and /healthz on %s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var wg sync.WaitGroup
	for _, s := range soaks {
		wg.Add(1)
		go func(s *obs.Soak) {
			defer wg.Done()
			s.Run(ctx)
		}(s)
	}
	wg.Wait()

	// Graceful shutdown: soaks have drained (a SIGTERM/SIGINT cancels
	// ctx and each Run returns at its next round boundary, never
	// mid-write); now flush the trace sink to disk before the summary,
	// so a signalled daemon leaves a complete JSONL file behind.
	if traceFile != nil {
		if err := traceFile.Sync(); err != nil {
			fmt.Fprintln(stdout, "passd: trace sync:", err)
		} else {
			fmt.Fprintln(stdout, "passd: trace sink flushed")
		}
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutCtx)

	exit := 0
	for _, s := range soaks {
		st := s.Status()
		verdict := "gate OK"
		if !st.GateOK {
			verdict = "GATE BREACHED"
			exit = 1
		}
		fmt.Fprintf(stdout, "passd: %-12s %s — iterations=%d rounds=%d min_recall=%.3f worst_streak=%d breaches=%d\n",
			st.Model, verdict, st.Iterations, st.Rounds, st.MinRecall, st.WorstStreak, st.Breaches)
		if st.Err != "" {
			fmt.Fprintf(stdout, "passd: %-12s error: %s\n", st.Model, st.Err)
			exit = 1
		}
	}
	if err := tr.SinkErr(); err != nil {
		fmt.Fprintln(stdout, "passd: trace sink:", err)
		exit = 1
	}
	return exit
}

// runNode boots one real node and serves it until SIGTERM/SIGINT. The
// stdout line carrying the bound UDP and HTTP addresses is the boot
// protocol: the cluster harness scans for it to collect ephemeral ports
// before distributing the peer roster via TPeers.
func runNode(args []string, stdout io.Writer, ready func(addr string)) int {
	fs := flag.NewFlagSet("passd node", flag.ContinueOnError)
	id := fs.Int("id", 0, "node ID (dense from 0)")
	mode := fs.String("mode", "passnet", `node mode: "passnet" or "dht"`)
	listen := fs.String("listen", "127.0.0.1:0", "UDP listen address")
	httpAddr := fs.String("http", "127.0.0.1:0", "HTTP listen address for /metrics and /healthz (\"\" disables)")
	dataDir := fs.String("data", "", "data directory for WAL + snapshot durability (\"\" = in-memory only)")
	fsync := fs.Bool("fsync", false, "fsync the WAL on every append (machine-crash durability)")
	compactEvery := fs.Int64("compact-every", 0, "WAL records between snapshot compactions (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	nd, err := node.New(node.Config{
		ID: int32(*id), Mode: *mode, Listen: *listen,
		DataDir: *dataDir, Fsync: *fsync, CompactEvery: *compactEvery,
	})
	if err != nil {
		fmt.Fprintln(stdout, "passd:", err)
		return 1
	}
	defer nd.Close()

	httpShown := "-"
	var srv *http.Server
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(stdout, "passd:", err)
			return 1
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			nd.SyncMetrics()
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = nd.Registry().WritePrometheus(w)
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{
				"healthy": true, "id": *id, "mode": *mode,
				"udp": nd.Addr().String(), "recovered": nd.Recovered(),
			})
		})
		srv = &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		httpShown = ln.Addr().String()
	}
	fmt.Fprintf(stdout, "passd: node %d listening on %s http %s\n", *id, nd.Addr(), httpShown)
	if ready != nil {
		ready(nd.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	if srv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}
	fmt.Fprintf(stdout, "passd: node %d shut down\n", *id)
	return 0
}
