package archtest

// RecallSoak — the suite's first TIME-WINDOWED correctness law. Every
// other law checks an endpoint (recall after quiescence, bytes after a
// join); this one watches the whole timeline. A soak stream
// (schedule.GenerateSoak) injects periodic crash waves whose victims
// always heal after a bounded number of rounds, plus mild loss bursts,
// and the law asserts on the per-round recall probe series:
//
//   - bounded dips: recall may drop below the threshold when a victim's
//     records go dark — that is the dip the fault stream constructs — but
//     never for more than K CONSECUTIVE rounds, where K is the victim
//     downtime plus a small recovery lag. A model that heals slower than
//     the fault cadence (or not at all) shows an over-budget streak.
//   - capability-gated budget: models that re-home crashed sites' keys
//     while the victims are still down (arch.Stabilizer, today: dht) get
//     NO recovery lag beyond the downtime itself — their recall must
//     return above threshold as fast as stabilization runs.
//   - recovered endpoint: the run ends healed, with recall ≥ 0.99.
//   - per-round determinism: two same-seed observed replays produce
//     identical recall series and identical outcomes — the series is a
//     reproducible artifact, and a failure dumps both the schedule and
//     the per-round log.

import (
	"fmt"
	"strings"
	"testing"

	"pass/internal/arch"
	"pass/internal/arch/schedule"
	"pass/internal/metrics"
	"pass/internal/netsim"
)

// soakSeeds drive the law's fault streams; one under -short.
var soakSeeds = []uint64{23001, 23002}

const (
	soakProbeSeed = 23999
	// soakThreshold is the recall bar the windowed gate watches. One
	// victim among 16 sites parks ~1/16 of the records below it, so the
	// gate is non-vacuous for locality-bound models.
	soakThreshold = 0.95
	// soakRecoveryLag is the post-heal grace (rounds) for models without
	// live re-homing: the heal lands at a round boundary and recovery
	// paths (proactive rejoin, outbox replay, index refresh) need a tick
	// or two to re-expose the victim's records.
	soakRecoveryLag = 3
)

// soakRecorder implements schedule.Observer: a per-round log for the
// failure dump plus the recall series the law asserts on.
type soakRecorder struct {
	log     strings.Builder
	recalls []float64
}

func (r *soakRecorder) OnEvent(round int, e schedule.Event) {
	fmt.Fprintf(&r.log, "  round %2d: %s site %d\n", round, e.Op, e.Site)
}

func (r *soakRecorder) OnRound(st schedule.RoundStats) {
	r.recalls = append(r.recalls, st.Recall)
	fmt.Fprintf(&r.log, "  round %2d: offered=%d acked=%d live=%d bytes=%d msgs=%d recall=%.3f\n",
		st.Round, st.Offered, st.Acked, st.Live, st.Bytes, st.Msgs, st.Recall)
}

func testRecallSoak(t *testing.T, cfg Config) {
	rounds := 36
	seeds := soakSeeds
	if testing.Short() {
		rounds = 18
		seeds = seeds[:1]
	}
	scfg := schedule.Config{Sites: 16, SitesPerZone: 4, Rounds: rounds, PubsPerRound: 4}
	opt := schedule.SoakOptions{CrashEvery: 6, DownFor: 3, Victims: 1, LossEvery: 9, LossFor: 2, LossRate: 0.1}

	// Capability gate: live re-homing forfeits the recovery grace.
	budget := opt.DownFor + soakRecoveryLag
	{
		net, sites := netsim.RandomTopology(netsim.Config{}, 2, 2, soakProbeSeed)
		if _, ok := cfg.Make(net, sites).(arch.Stabilizer); ok {
			budget = opt.DownFor
		}
	}

	for _, seed := range seeds {
		sched := schedule.GenerateSoak(seed, scfg, opt)
		run := func() (*soakRecorder, schedule.Outcome) {
			rec := &soakRecorder{}
			o, err := schedule.RunObserved(sched, cfg.Make, rec)
			if err != nil {
				t.Fatalf("seed %d: %v\nreplay:\n%s\nrounds:\n%s", seed, err, sched, &rec.log)
			}
			return rec, o
		}
		rec, o := run()

		// The windowed gate: no below-threshold streak longer than budget.
		gate := metrics.NewWindowed(soakThreshold, budget)
		for _, r := range rec.recalls {
			gate.Add(r)
		}
		if !gate.OK() {
			t.Fatalf("seed %d: recall below %.2f for %d consecutive rounds (budget %d)\nreplay:\n%s\nrounds:\n%s",
				seed, soakThreshold, gate.Worst(), budget, sched, &rec.log)
		}
		if o.Recall < 0.99 {
			t.Fatalf("seed %d: soak did not end recovered: recall %.3f\nreplay:\n%s\nrounds:\n%s",
				seed, o.Recall, sched, &rec.log)
		}
		if o.Acked == 0 || o.Stats.Bytes == 0 {
			t.Fatalf("seed %d: vacuous soak (acked=%d bytes=%d)\nreplay:\n%s", seed, o.Acked, o.Stats.Bytes, sched)
		}

		// Per-round determinism: the series, not just the endpoint.
		rec2, o2 := run()
		if o != o2 {
			t.Fatalf("seed %d: outcome diverged across identical soaks:\n%+v\nvs\n%+v\nreplay:\n%s", seed, o, o2, sched)
		}
		if len(rec2.recalls) != len(rec.recalls) {
			t.Fatalf("seed %d: series length diverged: %d vs %d rounds\nreplay:\n%s",
				seed, len(rec.recalls), len(rec2.recalls), sched)
		}
		for i := range rec.recalls {
			if rec.recalls[i] != rec2.recalls[i] {
				t.Fatalf("seed %d: recall series diverged at round %d: %v vs %v\nreplay:\n%s",
					seed, i, rec.recalls[i], rec2.recalls[i], sched)
			}
		}
	}
}
