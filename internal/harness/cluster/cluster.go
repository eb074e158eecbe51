// Package cluster is the multi-process integration harness: it builds
// the passd binary once, boots N real `passd node` processes on
// ephemeral loopback ports, distributes the peer roster, and then
// drives publishes, queries, maintenance ticks, kill signals and
// partitions through real sockets — the dusk-blockchain
// harness/engine/network.go shape applied to PASS.
//
// The headline use is the netsim cross-check (crosscheck.go): the same
// seeded schedule runs once against the in-process simulator and once
// against live processes, and the recall findings must agree within a
// stated tolerance — a conformance bridge between the paper's
// simulated results (experiments E14/E16) and a real deployment.
//
// Fault injection maps one-to-one onto deployment reality:
//
//   - Kill(i) delivers a real SIGKILL — no goodbye, no flush; the
//     process is simply gone, like a crashed site in netsim.Fail.
//   - Partition installs rate-1.0 ingress drop rules (wire.TDrop) on
//     both sides of the cut — datagrams cross the wire and are
//     discarded, like netsim.Partition.
//   - SetLoss seeds sub-1.0 drop rules on every node pair — the E14
//     loss dimension over real sockets.
//
// Node stdout/stderr stream to per-node log files (CI uploads them on
// failure).
package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"pass/internal/node"
)

// buildOnce builds passd a single time per test binary.
var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// BuildPassd compiles cmd/passd into a temp dir (once) and returns the
// binary path. Honors PASSD_BIN to reuse a prebuilt binary (CI builds
// it as its own step).
func BuildPassd() (string, error) {
	if p := os.Getenv("PASSD_BIN"); p != "" {
		return p, nil
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "passd-build")
		if err != nil {
			buildErr = err
			return
		}
		bin := filepath.Join(dir, "passd")
		cmd := exec.Command("go", "build", "-o", bin, "pass/cmd/passd")
		// Run from the repo root: this file sits at
		// internal/harness/cluster, so the module root is three up from
		// the test working directory.
		root, err := filepath.Abs(filepath.Join("..", "..", ".."))
		if err == nil {
			if _, statErr := os.Stat(filepath.Join(root, "go.mod")); statErr == nil {
				cmd.Dir = root
			}
		}
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("build passd: %v\n%s", err, out)
			return
		}
		buildPath = bin
	})
	return buildPath, buildErr
}

// Config parameterises a cluster boot.
type Config struct {
	N      int    // node count
	Mode   string // "passnet" or "dht"
	Seed   uint64 // seeds a soak's loss rules and records
	LogDir string // per-node log directory; "" uses a temp dir
	// DataRoot, when set, makes every node durable: node i gets
	// DataRoot/node-i as its -data directory, and KillAndRestart can
	// bring a SIGKILLed node back at the same identity (same ID, same
	// port, same data dir) to recover from its WAL and snapshot.
	DataRoot string
	// CompactEvery passes -compact-every to every node (0 = node default).
	CompactEvery int64
}

// proc is one managed node process.
type proc struct {
	id      int32
	cmd     *exec.Cmd
	udp     *net.UDPAddr
	http    string
	log     *os.File
	dead    bool
	listen  string // pinned after first boot: restarts rebind this port
	dataDir string // "" when the cluster is not durable
}

// Cluster is a set of live passd node processes plus the client
// endpoint that drives them.
type Cluster struct {
	cfg    Config
	bin    string
	logDir string
	procs  []*proc
	client *node.Client
	roster []node.Peer
}

var bootLine = regexp.MustCompile(`passd: node (\d+) listening on (\S+) http (\S+)`)

// Start builds passd (once), boots cfg.N node processes, waits for
// their boot lines, and distributes the roster. The returned cluster
// owns the processes; always call Shutdown.
func Start(cfg Config) (*Cluster, error) {
	bin, err := BuildPassd()
	if err != nil {
		return nil, err
	}
	logDir := cfg.LogDir
	if logDir == "" {
		if logDir, err = os.MkdirTemp("", "pass-cluster-logs"); err != nil {
			return nil, err
		}
	}
	c := &Cluster{cfg: cfg, bin: bin, logDir: logDir}
	fail := func(err error) (*Cluster, error) {
		c.Shutdown()
		return nil, err
	}
	for i := 0; i < cfg.N; i++ {
		p := &proc{id: int32(i), listen: "127.0.0.1:0", dead: true}
		if cfg.DataRoot != "" {
			p.dataDir = filepath.Join(cfg.DataRoot, fmt.Sprintf("node-%d", i))
		}
		c.procs = append(c.procs, p)
		if err := c.startProc(p); err != nil {
			return fail(err)
		}
		// Pin the bound port: a restart reclaims the same identity.
		p.listen = p.udp.String()
	}

	// Client ID sits past the node range so node-to-node drop rules
	// never catch control traffic.
	client, err := node.NewClient(int32(cfg.N) + 1000)
	if err != nil {
		return fail(err)
	}
	c.client = client
	for _, p := range c.procs {
		c.roster = append(c.roster, node.Peer{ID: p.id, Addr: p.udp.String()})
	}
	for _, p := range c.procs {
		if err := client.SetPeers(p.udp, c.roster); err != nil {
			return fail(fmt.Errorf("roster to node %d: %w", p.id, err))
		}
	}
	return c, nil
}

// startProc boots (or re-boots) one node process and waits for its boot
// line. Logs append to the node's log file across restarts, so one file
// tells the node's whole story. Caller sets p.listen and p.dataDir.
func (c *Cluster) startProc(p *proc) error {
	logFile, err := os.OpenFile(
		filepath.Join(c.logDir, fmt.Sprintf("node-%d.log", p.id)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	args := []string{"node",
		"-id", fmt.Sprint(p.id),
		"-mode", c.cfg.Mode,
		"-listen", p.listen,
		"-http", "127.0.0.1:0",
	}
	if p.dataDir != "" {
		args = append(args, "-data", p.dataDir)
		if c.cfg.CompactEvery > 0 {
			args = append(args, "-compact-every", fmt.Sprint(c.cfg.CompactEvery))
		}
	}
	cmd := exec.Command(c.bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return err
	}
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return fmt.Errorf("start node %d: %w", p.id, err)
	}
	if p.log != nil {
		p.log.Close()
	}
	p.cmd, p.log, p.dead = cmd, logFile, false

	// Tee stdout to the log file while scanning for the boot line.
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if bootLine.MatchString(line) {
				select {
				case lineCh <- line:
				default:
				}
			}
		}
	}()
	select {
	case line := <-lineCh:
		m := bootLine.FindStringSubmatch(line)
		addr, err := net.ResolveUDPAddr("udp", m[2])
		if err != nil {
			return err
		}
		p.udp, p.http = addr, m[3]
		return nil
	case <-time.After(15 * time.Second):
		return fmt.Errorf("node %d never printed its boot line (log: %s)", p.id, logFile.Name())
	}
}

// Client returns the cluster's driving client.
func (c *Cluster) Client() *node.Client { return c.client }

// Addr returns node i's UDP address.
func (c *Cluster) Addr(i int) *net.UDPAddr { return c.procs[i].udp }

// HTTPAddr returns node i's metrics/health address.
func (c *Cluster) HTTPAddr(i int) string { return c.procs[i].http }

// N returns the configured node count (killed nodes included).
func (c *Cluster) N() int { return len(c.procs) }

// Alive reports whether node i has not been killed or stopped.
func (c *Cluster) Alive(i int) bool { return !c.procs[i].dead }

// TickAll runs one maintenance round on every live node in ID order —
// the cluster's analogue of the harness's per-round model Tick.
func (c *Cluster) TickAll() error {
	for _, p := range c.procs {
		if p.dead {
			continue
		}
		if err := c.client.Tick(p.udp); err != nil {
			return fmt.Errorf("tick node %d: %w", p.id, err)
		}
	}
	return nil
}

// SetLoss installs seeded ingress drop rules at the given rate on every
// node for every peer — the E14 loss dimension. Rate 0 clears.
func (c *Cluster) SetLoss(rate float64, seed uint64) error {
	for _, p := range c.procs {
		if p.dead {
			continue
		}
		var rules []node.DropRule
		for _, q := range c.procs {
			if q.id == p.id {
				continue
			}
			rules = append(rules, node.DropRule{
				From: q.id, Rate: rate,
				Seed: seed ^ (uint64(p.id)<<32 | uint64(uint32(q.id))),
			})
		}
		if err := c.client.SetDrops(p.udp, rules); err != nil {
			return fmt.Errorf("drops to node %d: %w", p.id, err)
		}
	}
	return nil
}

// Partition cuts the cluster into the two groups (node indices) with
// rate-1.0 drop rules on both sides of every cross-group pair.
func (c *Cluster) Partition(a, b []int) error {
	return c.setCut(a, b, 1.0)
}

// HealPartition removes the cut between the two groups.
func (c *Cluster) HealPartition(a, b []int) error {
	return c.setCut(a, b, 0)
}

func (c *Cluster) setCut(a, b []int, rate float64) error {
	install := func(on, from []int) error {
		for _, i := range on {
			if c.procs[i].dead {
				continue
			}
			var rules []node.DropRule
			for _, j := range from {
				rules = append(rules, node.DropRule{From: c.procs[j].id, Rate: rate, Seed: uint64(i*31 + j)})
			}
			if err := c.client.SetDrops(c.procs[i].udp, rules); err != nil {
				return err
			}
		}
		return nil
	}
	if err := install(a, b); err != nil {
		return err
	}
	return install(b, a)
}

// Kill delivers a real SIGKILL to node i: no shutdown path runs, the
// kernel reaps the sockets — netsim.Fail with an exit code.
func (c *Cluster) Kill(i int) error {
	p := c.procs[i]
	if p.dead || p.cmd == nil {
		return nil
	}
	p.dead = true
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	_ = p.cmd.Wait()
	return nil
}

// KillAndRestart SIGKILLs node i, optionally wipes its data directory,
// and boots a fresh process with the same identity: same ID, same UDP
// port, same data dir. With wipe=false a durable node replays snapshot
// + WAL before its boot line prints; with wipe=true (or no DataRoot)
// the node comes back empty and must catch up over the wire. Either
// way the roster is re-sent to the restarted process — a no-op for the
// durable path (it recovered the roster from its WAL) and the join
// trigger for the wiped path.
func (c *Cluster) KillAndRestart(i int, wipe bool) error {
	p := c.procs[i]
	if err := c.Kill(i); err != nil {
		return err
	}
	if wipe && p.dataDir != "" {
		if err := os.RemoveAll(p.dataDir); err != nil {
			return err
		}
	}
	if err := c.startProc(p); err != nil {
		return fmt.Errorf("restart node %d: %w", i, err)
	}
	if err := c.client.SetPeers(p.udp, c.roster); err != nil {
		return fmt.Errorf("roster to restarted node %d: %w", i, err)
	}
	return nil
}

// AddNode boots one extra node under the next free ID and pushes the
// extended roster to every live node — a real join mid-run, the
// process-level analogue of netsim's E17 churn arrivals. Returns the
// new node's index.
func (c *Cluster) AddNode() (int, error) {
	i := len(c.procs)
	p := &proc{id: int32(i), listen: "127.0.0.1:0", dead: true}
	if c.cfg.DataRoot != "" {
		p.dataDir = filepath.Join(c.cfg.DataRoot, fmt.Sprintf("node-%d", i))
	}
	c.procs = append(c.procs, p)
	if err := c.startProc(p); err != nil {
		return -1, fmt.Errorf("add node %d: %w", i, err)
	}
	p.listen = p.udp.String()
	c.roster = append(c.roster, node.Peer{ID: p.id, Addr: p.udp.String()})
	for _, q := range c.procs {
		if q.dead {
			continue
		}
		if err := c.client.SetPeers(q.udp, c.roster); err != nil {
			return -1, fmt.Errorf("roster to node %d: %w", q.id, err)
		}
	}
	return i, nil
}

// Stop delivers SIGTERM and waits for a graceful exit (bounded).
func (c *Cluster) Stop(i int) error {
	p := c.procs[i]
	if p.dead || p.cmd == nil {
		return nil
	}
	p.dead = true
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
		return nil
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("node %d ignored SIGTERM", i)
	}
}

// Shutdown stops every process (SIGTERM, then SIGKILL on a deadline)
// and closes the client and log files.
func (c *Cluster) Shutdown() {
	for i := range c.procs {
		_ = c.Stop(i)
	}
	if c.client != nil {
		c.client.Close()
	}
	for _, p := range c.procs {
		if p.log != nil {
			p.log.Close()
		}
	}
}

// DumpLogs copies every node log to w (test-failure diagnostics).
func (c *Cluster) DumpLogs(w io.Writer) {
	for _, p := range c.procs {
		if p.log == nil {
			continue
		}
		fmt.Fprintf(w, "---- node %d (%s) ----\n", p.id, p.log.Name())
		data, err := os.ReadFile(p.log.Name())
		if err != nil {
			fmt.Fprintf(w, "  <unreadable: %v>\n", err)
			continue
		}
		fmt.Fprintln(w, strings.TrimRight(string(data), "\n"))
	}
}
