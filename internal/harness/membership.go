package harness

import (
	"fmt"

	"pass/internal/arch/schedule"
	"pass/internal/metrics"
)

// E17Membership — the elastic-membership dimension of survivability.
// E16 scripts one crash wave and one heal; E17 is what "sites come and
// go" looks like when nobody scripts it: a seeded generator (package
// schedule) interleaves join, crash, heal, partition, and loss-burst
// events at a configurable rate, and every architecture runs the SAME
// schedule per cell. The table reports, per model, site count, and
// event rate:
//
//   - events / joins: how much membership motion the schedule injected
//     and how many cold sites were admitted (dht pays a charged key
//     handoff per admission, arch.Joiner; everyone else runs the
//     heal-on-join convention — passnet's admitted site then takes the
//     proactive snapshot path by itself);
//   - acked: the publish workload acknowledged despite the churn
//     (bounded re-offers, E14's client model);
//   - recall / conv-rounds: once the schedule quiesces — faults lifted,
//     stragglers joined, unacknowledged publishes re-offered — how many
//     maintenance rounds until lookups answer in full, and where recall
//     lands (the oracle's bar is ≥ 0.99, the same as the scripted laws);
//   - handoff-bytes: the wire cost of join admissions, the arrival-side
//     counterpart of E16's rec-bytes;
//   - leaves / leave-bytes: voluntary departures the schedule drew and
//     what the pre-exit key handoff cost (dht's arch.Leaver pushes its
//     keys to the successor before disconnecting; models without the
//     capability just go dark until quiescence);
//   - gossip-bytes / dup-supp / pull-rounds: the dissemination layer's
//     own meter (arch.GossipMeter, "-" for unmetered models). The
//     passnet vs passnet-eff rows are the efficiency comparison under
//     unscripted churn: same schedule, same recall bar, strictly fewer
//     gossip bytes.
//
// Same-seed determinism of the whole sweep is pinned by the regression
// test, exactly like E14/E16.
func (r *Runner) E17Membership() (*Result, error) {
	table := metrics.NewTable("E17: membership (randomized join/crash/partition schedules)",
		"model", "sites", "rate", "events", "joins", "acked", "recall", "conv-rounds", "handoff-bytes",
		"leaves", "leave-bytes", "gossip-bytes", "dup-supp", "pull-rounds")
	findings := map[string]float64{}

	// metered marks models implementing arch.GossipMeter, whose rows carry
	// live gossip columns instead of "-". passnet-eff runs the same
	// schedule as passnet with efficient dissemination: dupemap
	// suppression, coalesced envelopes, armed anti-entropy pulls.
	entrants := []struct {
		name    string
		metered bool
	}{{"central", false}, {"softstate", false}, {"dht", false}, {"passnet", true}, {"passnet-eff", true}}

	type cell struct {
		nSites, ri, mi int
		rate           float64
	}
	var cells []cell
	for _, nSites := range []int{16, 64} {
		for ri, rate := range []float64{0.25, 0.75} {
			for mi := range entrants {
				cells = append(cells, cell{nSites, ri, mi, rate})
			}
		}
	}
	type out struct {
		events int
		schedule.Outcome
	}
	outs, err := runCells(r, cells, func(c cell) (out, error) {
		rateLabel := []string{"lo", "hi"}[c.ri]
		cfg := schedule.Config{
			Sites:        c.nSites,
			SitesPerZone: 4,
			Joiners:      c.nSites / 8,
			Rounds:       10,
			EventRate:    c.rate,
			PubsPerRound: r.scale.n(6),
			// Every acknowledged publish is re-offered twice more — the
			// at-least-once pipeline whose redundancy the efficient gossip
			// path (passnet-eff) is built to suppress.
			Reoffer: 2,
		}
		// One schedule per (sites, rate) point, shared by every model in
		// that column: the comparison is architectures under identical
		// membership motion. Each cell regenerates it from the seed so
		// parallel cells never share a Schedule value.
		seed := uint64(17000 + c.nSites*10 + c.ri)
		sched := schedule.Generate(seed, cfg)
		ent := entrants[c.mi]
		o, err := schedule.Run(sched, entrant(ent.name))
		if err != nil {
			return out{}, fmt.Errorf("%s (n=%d rate=%s): %w\nschedule:\n%s",
				ent.name, c.nSites, rateLabel, err, sched)
		}
		return out{len(sched.Events), o}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		o := outs[i]
		rateLabel := []string{"lo", "hi"}[c.ri]
		ent := entrants[c.mi]
		gb, ds, pr := any("-"), any("-"), any("-")
		if ent.metered {
			gb, ds, pr = o.GossipBytes, o.DupSuppressed, o.PullRounds
		}
		table.AddRow(ent.name, c.nSites, rateLabel, o.events, o.Joins,
			fmt.Sprintf("%d/%d", o.Acked, o.Offered),
			fmt.Sprintf("%.3f", o.Recall), o.ConvRounds, o.HandoffBytes,
			o.Leaves, o.LeaveBytes, gb, ds, pr)
		tag := fmt.Sprintf("%s_n%d_r%s", ent.name, c.nSites, rateLabel)
		findings["recall_"+tag] = o.Recall
		findings["acked_"+tag] = float64(o.Acked)
		findings["joins_"+tag] = float64(o.Joins)
		findings["rounds_"+tag] = float64(o.ConvRounds)
		findings["handoff_"+tag] = float64(o.HandoffBytes)
		findings["events_"+tag] = float64(o.events)
		findings["leaves_"+tag] = float64(o.Leaves)
		findings["leavebytes_"+tag] = float64(o.LeaveBytes)
		if ent.metered {
			findings["gossip_"+tag] = float64(o.GossipBytes)
			findings["dupsupp_"+tag] = float64(o.DupSuppressed)
			findings["pulls_"+tag] = float64(o.PullRounds)
		}
	}
	return &Result{
		ID:       "E17",
		Title:    "Membership: randomized join/crash/partition schedules — recall, handoff cost, convergence",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"every model in a cell replays the SAME generated schedule (seeded, replayable via schedule.String); the oracle is generic: recall >= 0.99 after quiescence, all joiners admitted, all bytes charged",
			"joins: dht admits cold nodes through arch.Joiner — spliced into the ring with a charged key handoff (handoff-bytes) — while the other models run the heal-on-join convention; passnet's admitted sites then trigger their own rejoin snapshots inside Tick (proactive rejoin, zero operator calls)",
			"conv-rounds counts post-quiescence maintenance rounds until every acknowledged publish resolves from every querier, one of them a freshly joined site",
			"leaves: voluntary departures drawn by the schedule; dht coordinates each one through arch.Leaver (keys pushed to the successor before disconnect, leave-bytes charged) while models without the capability let the leaver go dark until quiescence",
			"gossip-bytes/dup-supp/pull-rounds: arch.GossipMeter accounting, '-' for unmetered models; passnet vs passnet-eff under the SAME schedule is the efficiency comparison — equal recall, fewer bytes",
		},
	}, nil
}
