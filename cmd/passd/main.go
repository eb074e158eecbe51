// Command passd runs one REAL PASS node (package node): a UDP wire
// endpoint serving put/get/query verbs plus the control plane the
// multi-process cluster harness drives (peer roster, ticks, drop rules,
// stats), with a /metrics (Prometheus text) and /healthz (JSON) HTTP
// surface. The node prints its bound addresses on stdout ("passd: node
// N listening on ADDR http ADDR") so a parent process can collect
// ephemeral ports.
//
// Usage:
//
//	passd node [flags]
//
// Flags:
//
//	-id      node ID (dense from 0; doubles as wire From and ring seat)
//	-mode    "passnet" or "dht" (default passnet)
//	-listen  UDP listen address (default 127.0.0.1:0)
//	-http    HTTP listen address for /metrics + /healthz ("" disables)
//	-data    data directory for WAL + checkpoint durability ("" = in-memory
//	         only); a restarted node recovers its state from here
//	-fsync   fsync the WAL on every append (machine-crash durability)
//	-compact-every  WAL records between checkpoints (0 = default)
//
// The node shuts down gracefully on SIGTERM/SIGINT: it stops the HTTP
// server, closes its sockets and exits 0.
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
	"syscall"
	"time"

	"pass/internal/node"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the testable entry point. Returns the process exit code.
func run(args []string, stdout io.Writer) int {
	if len(args) == 0 || args[0] != "node" {
		fmt.Fprintln(stdout, "usage: passd node [flags]   (see -h for flags)")
		return 2
	}
	return runNode(args[1:], stdout)
}

// runNode boots one real node and serves it until SIGTERM/SIGINT. The
// stdout line carrying the bound UDP and HTTP addresses is the boot
// protocol: the cluster harness scans for it to collect ephemeral ports
// before distributing the peer roster via TPeers.
func runNode(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("passd node", flag.ContinueOnError)
	id := fs.Int("id", 0, "node ID (dense from 0)")
	mode := fs.String("mode", "passnet", `node mode: "passnet" or "dht"`)
	listen := fs.String("listen", "127.0.0.1:0", "UDP listen address")
	httpAddr := fs.String("http", "127.0.0.1:0", "HTTP listen address for /metrics and /healthz (\"\" disables)")
	dataDir := fs.String("data", "", "data directory for WAL + checkpoint durability (\"\" = in-memory only)")
	fsync := fs.Bool("fsync", false, "fsync the WAL on every append (machine-crash durability)")
	compactEvery := fs.Int64("compact-every", 0, "WAL records between checkpoints (0 = default)")
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
