package cluster

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"pass/internal/metrics"
	"pass/internal/provenance"
)

// This file is the long-haul chaos soak: an E17-shaped membership
// schedule driven against REAL processes. Each cycle publishes fresh
// records, runs gated maintenance rounds, then SIGKILLs a victim and
// restarts it — alternating between a durable restart (same data dir,
// WAL + snapshot replay) and a cold rejoin (data dir wiped first, so
// the node must pull state back over the wire). Every restart is
// measured in two currencies:
//
//   - rounds-to-recover: maintenance rounds until the restarted node
//     itself answers the domain query at the recall threshold. Probe 0
//     fires before any tick, so a durable restart that recovered from
//     disk scores 0 while a wiped node (which catches up on its first
//     tick) scores at least 1.
//   - recovery bytes: the restarted process's total wire traffic
//     (BytesIn+BytesOut) at the moment it recovered — disk replay is
//     free on this meter, snapshot pulls are not.
//
// The durable path must strictly beat the wiped path on both meters;
// that inequality is the soak's headline claim and the reason nodes
// carry WALs at all.
//
// Throughout, per-round recall feeds a metrics.Windowed gate (the one
// the RecallSoak conformance law uses): transient dips during
// convergence or the optional partition epoch are tolerated up to
// MaxStreak consecutive rounds, a longer stay below Threshold is a
// breach.

// soakDomain tags every soak record so queries score only soak traffic.
const soakDomain = "soak"

// SoakConfig parameterises one chaos soak.
type SoakConfig struct {
	Cluster Config // Cluster.DataRoot must be set for durable restarts
	// Cycles is the number of kill/restart cycles. Even cycles (0, 2,
	// ...) wipe the victim's data dir first; odd cycles restart it
	// durable — so any Cycles >= 2 exercises both recovery paths. Wipe
	// goes first deliberately: recovery from a pull ends in a
	// compaction, so the following cycle's gossip lands in the WAL and
	// the durable restart exercises genuine log replay on top of the
	// snapshot rather than a snapshot-only boot.
	Cycles int
	Pubs   int     // publishes per cycle (origins rotate over non-victims)
	Ticks  int     // gated maintenance rounds per cycle
	Loss   float64 // seeded background packet loss (0 = clean network)
	// Partition, when true, runs one partition/heal epoch halfway
	// through the soak: the cluster splits into two halves for a round,
	// then heals and re-converges under the same gate.
	Partition bool
	// Join, when true, boots one extra node after the first cycle — a
	// real `passd node` process joining mid-soak. It arrives empty, is
	// scored by the gate from its first round, and must converge via
	// the same catch-up pull a wiped restart uses.
	Join       bool
	Threshold  float64 // windowed recall floor (E17's 0.99 shape)
	MaxStreak  int     // consecutive sub-threshold rounds tolerated
	ProbeLimit int     // probe rounds before a restart is declared stuck
}

// CycleResult is one kill/restart cycle's recovery measurement.
type CycleResult struct {
	Victim int
	Wiped  bool
	Rounds int   // probe rounds until the victim answered at threshold
	Bytes  int64 // victim's wire traffic (in+out) at recovery
}

// SoakResult summarises the soak for gating and reporting.
type SoakResult struct {
	Cycles    []CycleResult
	Rounds    int     // gated rounds observed
	Breaches  int     // windowed-gate breaches (0 = pass)
	Worst     int     // longest sub-threshold streak
	MinRecall float64 // worst single-round recall
	OK        bool    // Breaches == 0 and every restart recovered

	// Joined is the index of the node added mid-soak (-1 if none).
	Joined int

	// WAL totals summed over all nodes' /metrics at soak end.
	WalAppends, WalBytes, WalReplays, WalTruncations int64
}

// Soak boots a durable cluster and drives the schedule above. Recovery
// and WAL series land in reg (pass_recovery_rounds, pass_recovery_bytes
// labeled by wipe mode, plus cluster-summed pass_wal_*_total), so a
// test scraping reg sees the soak's durability story.
func Soak(cfg SoakConfig, reg *metrics.Registry) (*SoakResult, error) {
	if cfg.Cluster.DataRoot == "" {
		return nil, fmt.Errorf("soak: Cluster.DataRoot required (durable restarts are the point)")
	}
	if cfg.Cluster.N < 3 {
		return nil, fmt.Errorf("soak: need at least 3 nodes, got %d", cfg.Cluster.N)
	}
	c, err := Start(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()

	// The victim is the last node; publishes originate only at the
	// others. In passnet a wiped node's own-origin records are gone for
	// good (gossip has no record bodies to pull back — that is exactly
	// the data loss durability prevents), so keeping the victim out of
	// the origin rotation makes recall a clean measure of the recovery
	// path rather than of unrecoverable loss.
	victim := c.N() - 1
	if cfg.Loss > 0 {
		if err := c.SetLoss(cfg.Loss, cfg.Cluster.Seed); err != nil {
			return nil, err
		}
	}

	gate := metrics.NewWindowed(cfg.Threshold, cfg.MaxStreak)
	acked := make(map[provenance.ID]bool)
	res := &SoakResult{OK: true, Joined: -1}
	pubSeq := 0

	// recallFrom scores one node's domain query against the acked set.
	recallFrom := func(i int) float64 {
		got, err := c.Client().QueryAttr(c.Addr(i), provenance.KeyDomain, provenance.String(soakDomain))
		if err != nil {
			return 0
		}
		hit := 0
		for _, id := range got {
			if acked[id] {
				hit++
			}
		}
		return float64(hit) / float64(len(acked))
	}
	// gateRound averages recall over all live nodes and feeds the gate.
	gateRound := func() {
		if len(acked) == 0 {
			return
		}
		sum, n := 0.0, 0
		for i := 0; i < c.N(); i++ {
			if !c.Alive(i) {
				continue
			}
			sum += recallFrom(i)
			n++
		}
		gate.Add(sum / float64(n))
	}

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		// A real join after the first cycle: the new process arrives
		// empty mid-schedule and is gated like everyone else.
		if cfg.Join && cycle == 1 {
			j, err := c.AddNode()
			if err != nil {
				return nil, err
			}
			res.Joined = j
			if cfg.Loss > 0 {
				if err := c.SetLoss(cfg.Loss, cfg.Cluster.Seed); err != nil {
					return nil, err
				}
			}
		}

		// Publish this cycle's records from rotating non-victim origins.
		for k := 0; k < cfg.Pubs; k++ {
			rec, err := soakRecord(cfg.Cluster.Seed, pubSeq)
			if err != nil {
				return nil, err
			}
			origin := pubSeq % victim
			pubSeq++
			for a := 0; a < attempts; a++ {
				if id, err := c.Client().Put(c.Addr(origin), rec); err == nil {
					acked[id] = true
					break
				}
			}
		}

		// Optional partition epoch at the soak's midpoint.
		if cfg.Partition && cycle == cfg.Cycles/2 {
			var a, b []int
			for i := 0; i < c.N(); i++ {
				if i < c.N()/2 {
					a = append(a, i)
				} else {
					b = append(b, i)
				}
			}
			if err := c.Partition(a, b); err != nil {
				return nil, err
			}
			if err := c.TickAll(); err != nil {
				return nil, err
			}
			gateRound()
			if err := c.HealPartition(a, b); err != nil {
				return nil, err
			}
		}

		// Gated maintenance rounds: converge this cycle's publishes.
		for t := 0; t < cfg.Ticks; t++ {
			if err := c.TickAll(); err != nil {
				return nil, err
			}
			gateRound()
		}
		gate.EndIteration()

		// Kill and restart the victim; even cycles wipe its data dir.
		wipe := cycle%2 == 0
		if err := c.KillAndRestart(victim, wipe); err != nil {
			return nil, err
		}
		if cfg.Loss > 0 {
			// The fresh process booted with no drop rules; re-seed them.
			if err := c.SetLoss(cfg.Loss, cfg.Cluster.Seed); err != nil {
				return nil, err
			}
		}

		// Probe the restarted node until it has left its declared
		// catch-up mode AND answers the domain query at threshold. The
		// stat runs before the query so that a probe-0 recovery (the
		// durable path) charges no query traffic to the bytes meter.
		rounds, bytes := -1, int64(0)
		for r := 0; r <= cfg.ProbeLimit; r++ {
			if r > 0 {
				if err := c.TickAll(); err != nil {
					return nil, err
				}
			}
			st, err := c.Client().Stat(c.Addr(victim))
			if err != nil {
				return nil, fmt.Errorf("stat restarted node: %w", err)
			}
			if !st.CatchingUp && recallFrom(victim) >= cfg.Threshold {
				rounds, bytes = r, st.BytesIn+st.BytesOut
				break
			}
		}
		if rounds < 0 {
			res.OK = false
			rounds = cfg.ProbeLimit + 1
		}
		// Replay counters live in the restarted process and die with it
		// on the next kill, so harvest them per cycle rather than at
		// soak end (the end-of-soak scrape would only see the LAST
		// boot, which for a wiped restart replayed nothing).
		if vals, err := scrapeCounters(c.HTTPAddr(victim), "pass_wal_replays_total"); err == nil {
			res.WalReplays += vals["pass_wal_replays_total"]
		}

		cr := CycleResult{Victim: victim, Wiped: wipe, Rounds: rounds, Bytes: bytes}
		res.Cycles = append(res.Cycles, cr)
		mode := metrics.L("wipe", strconv.FormatBool(wipe))
		reg.Gauge("pass_recovery_rounds", mode).Set(int64(rounds))
		reg.Gauge("pass_recovery_bytes", mode).Set(bytes)
		reg.Counter("pass_recovery_cycles_total", mode).Inc()
	}

	// Sum the per-node WAL counters off each live node's /metrics — the
	// same surface a production scrape would read.
	for i := 0; i < c.N(); i++ {
		if !c.Alive(i) {
			continue
		}
		vals, err := scrapeCounters(c.HTTPAddr(i),
			"pass_wal_appends_total", "pass_wal_bytes_total",
			"pass_wal_truncations_total")
		if err != nil {
			return nil, fmt.Errorf("scrape node %d: %w", i, err)
		}
		res.WalAppends += vals["pass_wal_appends_total"]
		res.WalBytes += vals["pass_wal_bytes_total"]
		res.WalTruncations += vals["pass_wal_truncations_total"]
	}
	reg.Counter("pass_wal_appends_total").Set(res.WalAppends)
	reg.Counter("pass_wal_bytes_total").Set(res.WalBytes)
	reg.Counter("pass_wal_replays_total").Set(res.WalReplays)
	reg.Counter("pass_wal_truncations_total").Set(res.WalTruncations)

	res.Rounds = gate.Rounds()
	res.Breaches = gate.Breaches()
	res.Worst = gate.Worst()
	res.MinRecall = gate.MinRecall()
	if !gate.OK() {
		res.OK = false
	}
	return res, nil
}

// soakRecord builds the i-th deterministic soak record.
func soakRecord(seed uint64, i int) (*provenance.Record, error) {
	var digest [32]byte
	digest[0], digest[1] = byte(i), byte(i>>8)
	digest[2] = byte(seed) ^ 0xA5
	rec, _, err := provenance.NewRaw(digest, 64).
		Attrs(
			provenance.Attr("n", provenance.Int64(int64(i))),
			provenance.Attr(provenance.KeyDomain, provenance.String(soakDomain)),
		).
		CreatedAt(int64(i) + 1).
		Build()
	return rec, err
}

// scrapeCounters fetches a node's Prometheus exposition and extracts the
// named (unlabeled) series.
func scrapeCounters(httpAddr string, names ...string) (map[string]int64, error) {
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]int64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !want[fields[0]] {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = int64(v)
	}
	return out, sc.Err()
}
