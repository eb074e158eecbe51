package cluster

import (
	"os"
	"strings"
	"testing"

	"pass/internal/metrics"
	"pass/internal/provenance"
)

// dataRoot honors CLUSTER_DATA_DIR so CI can upload the WAL and
// snapshot files of a failed soak (t.TempDir is reaped even on
// failure); locally it falls back to a per-test temp dir.
func dataRoot(t *testing.T) string {
	t.Helper()
	if d := os.Getenv("CLUSTER_DATA_DIR"); d != "" {
		dir, err := os.MkdirTemp(d, "soak-*")
		if err != nil {
			t.Fatalf("data root under %s: %v", d, err)
		}
		return dir
	}
	return t.TempDir()
}

// These tests exercise restart as a first-class lifecycle event on real
// processes: a SIGKILLed node comes back at the same identity (ID,
// port, data dir) and must rejoin the cluster — from disk when its WAL
// survived, over the wire when the data dir was wiped. The durable
// path must strictly beat the wiped path on both recovery meters.

// soakPublish pushes n soak-domain records through rotating non-victim
// origins and returns the acked ID set.
func soakPublish(t *testing.T, c *Cluster, victim, start, n int) map[provenance.ID]bool {
	t.Helper()
	acked := make(map[provenance.ID]bool, n)
	for k := 0; k < n; k++ {
		rec, err := soakRecord(7, start+k)
		if err != nil {
			t.Fatalf("build record: %v", err)
		}
		id, err := c.Client().Put(c.Addr((start+k)%victim), rec)
		if err != nil {
			t.Fatalf("publish %d: %v", start+k, err)
		}
		acked[id] = true
	}
	return acked
}

// recallAt scores node i's soak-domain query against acked.
func recallAt(t *testing.T, c *Cluster, i int, acked map[provenance.ID]bool) float64 {
	t.Helper()
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

// measureRecovery probes the restarted victim (stat first, then query —
// the same meter Soak uses) and returns (rounds, bytes).
func measureRecovery(t *testing.T, c *Cluster, victim int, acked map[provenance.ID]bool) (int, int64) {
	t.Helper()
	for r := 0; r <= 6; r++ {
		if r > 0 {
			if err := c.TickAll(); err != nil {
				t.Fatalf("tick during probe %d: %v", r, err)
			}
		}
		st, err := c.Client().Stat(c.Addr(victim))
		if err != nil {
			t.Fatalf("stat restarted node: %v", err)
		}
		if !st.CatchingUp && recallAt(t, c, victim, acked) >= 0.99 {
			return r, st.BytesIn + st.BytesOut
		}
	}
	t.Fatalf("node %d never recovered within probe limit", victim)
	return 0, 0
}

// TestKillAndRestartDurable: both modes, SIGKILL mid-schedule, restart
// from the same data dir. The restarted process must report a disk
// recovery and the whole cluster must answer at recall >= 0.99.
func TestKillAndRestartDurable(t *testing.T) {
	for _, mode := range []string{"passnet", "dht"} {
		t.Run(mode, func(t *testing.T) {
			c := startCluster(t, Config{
				N: 4, Mode: mode, Seed: 7, DataRoot: dataRoot(t), CompactEvery: 64,
			})
			victim := c.N() - 1
			acked := soakPublish(t, c, victim, 0, 10)
			for i := 0; i < 3; i++ {
				if err := c.TickAll(); err != nil {
					t.Fatalf("tick: %v", err)
				}
			}
			// Mid-schedule crash: more publishes land after the restart.
			if err := c.KillAndRestart(victim, false); err != nil {
				t.Fatalf("kill+restart: %v", err)
			}
			st, err := c.Client().Stat(c.Addr(victim))
			if err != nil {
				t.Fatalf("stat: %v", err)
			}
			if !st.Recovered {
				t.Fatalf("restarted node did not recover from disk: %+v", st)
			}
			if st.CatchingUp {
				t.Fatalf("durable restart should not be in catch-up mode: %+v", st)
			}
			for id := range soakPublish(t, c, victim, 10, 6) {
				acked[id] = true
			}
			for i := 0; i < 3; i++ {
				if err := c.TickAll(); err != nil {
					t.Fatalf("tick: %v", err)
				}
			}
			for i := 0; i < c.N(); i++ {
				if got := recallAt(t, c, i, acked); got < 0.99 {
					t.Fatalf("node %d recall %.3f after durable restart, want >= 0.99", i, got)
				}
			}
		})
	}
}

// TestDurableBeatsColdRejoin is the soak's headline inequality measured
// directly: on the same corpus, a durable restart must strictly beat a
// wiped-dir cold rejoin in BOTH rounds-to-recover and recovery bytes.
func TestDurableBeatsColdRejoin(t *testing.T) {
	for _, mode := range []string{"passnet", "dht"} {
		t.Run(mode, func(t *testing.T) {
			c := startCluster(t, Config{
				N: 4, Mode: mode, Seed: 11, DataRoot: dataRoot(t), CompactEvery: 64,
			})
			victim := c.N() - 1
			acked := soakPublish(t, c, victim, 0, 12)
			for i := 0; i < 3; i++ {
				if err := c.TickAll(); err != nil {
					t.Fatalf("tick: %v", err)
				}
			}

			if err := c.KillAndRestart(victim, false); err != nil {
				t.Fatalf("durable restart: %v", err)
			}
			durRounds, durBytes := measureRecovery(t, c, victim, acked)

			if err := c.KillAndRestart(victim, true); err != nil {
				t.Fatalf("wiped restart: %v", err)
			}
			coldRounds, coldBytes := measureRecovery(t, c, victim, acked)

			t.Logf("%s: durable %d rounds / %d bytes, cold %d rounds / %d bytes",
				mode, durRounds, durBytes, coldRounds, coldBytes)
			if durRounds >= coldRounds {
				t.Errorf("durable restart took %d rounds, cold rejoin %d: want strictly fewer", durRounds, coldRounds)
			}
			if durBytes >= coldBytes {
				t.Errorf("durable restart moved %d bytes, cold rejoin %d: want strictly fewer", durBytes, coldBytes)
			}
		})
	}
}

// TestSoakRestartSmoke is the CI-shaped soak: one kill/restart cycle
// per recovery mode plus a partition/heal epoch, gated by the windowed
// recall floor, with the WAL and recovery series landing in the
// harness registry.
func TestSoakRestartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	for _, mode := range []string{"passnet", "dht"} {
		t.Run(mode, func(t *testing.T) {
			reg := metrics.NewRegistry()
			res, err := Soak(SoakConfig{
				Cluster: Config{
					N: 3, Mode: mode, Seed: 23,
					DataRoot: dataRoot(t), LogDir: logDir(t), CompactEvery: 64,
				},
				Cycles: 2, Pubs: 6, Ticks: 2,
				Partition: true, Join: true,
				Threshold: 0.99, MaxStreak: 3, ProbeLimit: 5,
			}, reg)
			if err != nil {
				t.Fatalf("soak: %v", err)
			}
			if !res.OK {
				t.Fatalf("soak gate failed: %+v", res)
			}
			if len(res.Cycles) != 2 || !res.Cycles[0].Wiped || res.Cycles[1].Wiped {
				t.Fatalf("want cycle 0 wiped + cycle 1 durable, got %+v", res.Cycles)
			}
			if res.Joined != 3 {
				t.Fatalf("expected node 3 to join mid-soak, got %d", res.Joined)
			}
			if res.WalAppends == 0 || res.WalReplays == 0 {
				t.Fatalf("WAL series missing from scrape: %+v", res)
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatalf("write exposition: %v", err)
			}
			for _, series := range []string{
				"pass_recovery_rounds", "pass_recovery_bytes",
				"pass_wal_appends_total", "pass_wal_replays_total",
			} {
				if !strings.Contains(sb.String(), series) {
					t.Errorf("series %q missing from harness registry exposition", series)
				}
			}
		})
	}
}

// TestSoakGateBreaches: the real-process gate can say no. With no streak
// budget, the one partitioned round — each passnet half sees only its
// own side's records — is a breach, and Soak reports it.
func TestSoakGateBreaches(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	const threshold = 0.99
	res, err := Soak(SoakConfig{
		Cluster: Config{
			N: 3, Mode: "passnet", Seed: 23,
			DataRoot: dataRoot(t), LogDir: logDir(t),
		},
		Cycles: 1, Pubs: 6, Ticks: 1, Partition: true,
		Threshold: threshold, MaxStreak: 0, ProbeLimit: 5,
	}, metrics.NewRegistry())
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	if res.OK || res.Breaches != 1 || res.MinRecall >= threshold {
		t.Fatalf("want one breach below %.2f, got OK=%v breaches=%d min=%.3f",
			threshold, res.OK, res.Breaches, res.MinRecall)
	}
}
