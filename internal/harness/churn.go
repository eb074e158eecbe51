package harness

import (
	"fmt"

	"pass/internal/arch"
	"pass/internal/arch/dht"
	"pass/internal/arch/scenario"
	"pass/internal/metrics"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// E16Churn — the membership dimension of survivability. E14 injects
// transient faults (loss) and E15 a clean split; E16 is what the paper's
// "sites come and go" scenario actually means: nodes CRASH while the
// workload runs, stay down across maintenance rounds, and then rejoin.
// The experiment measures three things per architecture and churn rate:
//
//   - recall-down: what queries see immediately after the crash, before
//     any maintenance — the raw hole the churn tore;
//   - recall-stab: what queries see after maintenance rounds run WHILE
//     the victims are still down — this is where the DHT's stabilization
//     (successor-list re-homing, arch.Stabilizer) recovers lookups
//     without the crashed nodes coming back, and where locality-bound
//     models honestly cannot (the victims' records are only at the
//     victims);
//   - rounds / rec-bytes: after the victims heal, how many maintenance
//     rounds and how many bytes it takes to restore full recall. passnet
//     appears twice — once rejoining via snapshot state transfer
//     (arch.Rejoiner) and once recovering by outbox replay alone — so
//     the snapshot's rounds-vs-bytes tradeoff is a table row, not a
//     claim: here each origin queues one batched delta, so replay is
//     byte-lean and the snapshot buys immediate convergence; the
//     many-deltas-missed regime where the snapshot also wins on bytes
//     is the FastRejoin conformance law's scenario.
//
// Publishes attempted mid-churn follow E14's client model: re-offered a
// bounded number of times, counted as acked or given up; recall is
// measured over acknowledged publishes only.
func (r *Runner) E16Churn() (*Result, error) {
	table := metrics.NewTable("E16: churn (crash → stabilize → rejoin, recall & recovery cost)",
		"model", "sites", "churn", "acked", "recall-down", "recall-stab", "rounds", "rec-bytes", "rehomed")
	findings := map[string]float64{}

	const sitesPerZone = 4
	prePubs := r.scale.n(60)
	churnPubs := r.scale.n(40)
	const healRounds = 8

	// passnet rejoins its recovered sites through the snapshot path
	// (arch.Rejoiner); passnet-replay recovers by outbox replay alone.
	entrants := []struct {
		name   string
		rejoin bool
	}{{"central", false}, {"softstate", false}, {"dht", false}, {"passnet", true}, {"passnet-replay", false}}

	type cell struct {
		nSites, ci, mi int
		crashFrac      float64
	}
	var cells []cell
	for _, nSites := range []int{16, 64} {
		for ci, crashFrac := range []float64{0.125, 0.25} {
			for mi := range entrants {
				cells = append(cells, cell{nSites, ci, mi, crashFrac})
			}
		}
	}
	type out struct {
		acked                  int
		recallDown, recallStab float64
		recallHeal             float64
		rounds                 int
		recBytes, rehomed      int64
	}
	outs, err := runCells(r, cells, func(c cell) (out, error) {
		nSites := c.nSites
		nVictims := int(float64(nSites) * c.crashFrac)
		ent := entrants[c.mi]
		net, sites := netsim.RandomTopology(netsim.Config{
			Seed: uint64(nSites*1000 + c.ci*100 + c.mi + 1),
		}, nSites/sitesPerZone, sitesPerZone, uint64(16000+nSites))
		m := entrant(ent.name)(net, sites)

		// Victims: an even stride over the roster, never the service
		// anchors at sites[0] and sites[1] (central's warehouse,
		// softstate's index nodes) — crashing a single point of
		// failure is E15's contrast, not churn, and keeping the
		// lookup service up is what lets recall-stab measure the
		// LOCALITY effect rather than index outage.
		victims := make([]netsim.SiteID, 0, nVictims)
		isVictim := make(map[netsim.SiteID]bool, nVictims)
		for i := 0; i < nVictims; i++ {
			idx := (2 + i*(nSites/nVictims)) % nSites
			for idx < 2 || isVictim[sites[idx]] {
				idx = (idx + 1) % nSites
			}
			victims = append(victims, sites[idx])
			isVictim[sites[idx]] = true
		}

		// Phase 1: steady state — everyone publishes, maintenance
		// flushes, the federation is converged.
		acked := make(map[provenance.ID]bool)
		pubs, err := taggedPubs(net, sites, "churn", 0xE6, 0, prePubs, nil)
		if err != nil {
			return out{}, err
		}
		var unacked []arch.Pub
		offer := func(pubs []arch.Pub) error {
			for _, p := range pubs {
				o, err := scenario.Offer(m, p, 4)
				if err != nil {
					return err
				}
				if o.Acked {
					acked[p.ID] = true
				} else {
					unacked = append(unacked, p)
				}
			}
			return nil
		}
		if err := offer(pubs); err != nil {
			return out{}, err
		}
		for i := 0; i < 2; i++ {
			if err := m.Tick(); err != nil {
				return out{}, fmt.Errorf("%s tick: %w", ent.name, err)
			}
		}

		// Phase 2: crash, then keep publishing from live sites.
		for _, v := range victims {
			net.Fail(v)
		}
		morePubs, err := taggedPubs(net, sites, "churn", 0xE6, prePubs, churnPubs, isVictim)
		if err != nil {
			return out{}, err
		}
		if err := offer(morePubs); err != nil {
			return out{}, err
		}

		queriers := liveQueriers(sites, isVictim)
		recallDown := scenario.LookupRecall(m, queriers, acked)

		// Phase 3: maintenance with the victims still down — the
		// stabilization window.
		for i := 0; i < 3; i++ {
			if err := m.Tick(); err != nil {
				return out{}, fmt.Errorf("%s tick: %w", ent.name, err)
			}
		}
		recallStab := scenario.LookupRecall(m, queriers, acked)

		// Phase 4: heal; rejoiners take the snapshot path; failed
		// publishes are re-offered (idempotent); rounds until the
		// healed federation answers in full again.
		for _, v := range victims {
			net.Heal(v)
		}
		statsAtHeal := net.Stats()
		if rej, ok := m.(arch.Rejoiner); ok && ent.rejoin {
			for _, v := range victims {
				if _, err := rej.Rejoin(v); err != nil {
					return out{}, fmt.Errorf("%s rejoin of %d: %w", ent.name, v, err)
				}
			}
		}
		for _, p := range unacked {
			o, err := scenario.Offer(m, p, 6)
			if err != nil {
				return out{}, err
			}
			if o.Acked {
				acked[p.ID] = true
			}
		}
		healQueriers := append(append([]netsim.SiteID(nil), queriers...), victims[0])
		// The recall probes are real (charged) lookups; their bytes
		// are metered separately so rec-bytes reports only the
		// recovery paths' own traffic — otherwise the slower path
		// would be billed for more measurement sweeps.
		probeBytes := int64(0)
		probe := func() float64 {
			b0 := net.Stats().Bytes
			rec := scenario.LookupRecall(m, healQueriers, acked)
			probeBytes += net.Stats().Bytes - b0
			return rec
		}
		rounds := 0
		for ; rounds < healRounds; rounds++ {
			if probe() == 1 {
				break
			}
			if err := m.Tick(); err != nil {
				return out{}, fmt.Errorf("%s tick: %w", ent.name, err)
			}
		}
		recBytes := net.Stats().Bytes - statsAtHeal.Bytes - probeBytes
		recallHeal := scenario.LookupRecall(m, healQueriers, acked)

		rehomed := int64(0)
		if d, ok := m.(*dht.Model); ok {
			rehomed = d.Rehomed()
		}
		return out{
			acked:      len(acked),
			recallDown: recallDown, recallStab: recallStab, recallHeal: recallHeal,
			rounds: rounds, recBytes: recBytes, rehomed: rehomed,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		o := outs[i]
		churnPct := int(c.crashFrac * 100)
		label := entrants[c.mi].name
		table.AddRow(label, c.nSites, fmt.Sprintf("%d%%", churnPct),
			fmt.Sprintf("%d/%d", o.acked, prePubs+churnPubs),
			fmt.Sprintf("%.3f", o.recallDown), fmt.Sprintf("%.3f", o.recallStab),
			o.rounds, o.recBytes, o.rehomed)
		tag := fmt.Sprintf("%s_n%d_c%d", label, c.nSites, churnPct)
		findings["acked_"+tag] = float64(o.acked)
		findings["recall_down_"+tag] = o.recallDown
		findings["recall_stab_"+tag] = o.recallStab
		findings["recall_heal_"+tag] = o.recallHeal
		findings["rounds_"+tag] = float64(o.rounds)
		findings["recbytes_"+tag] = float64(o.recBytes)
		findings["rehomed_"+tag] = float64(o.rehomed)
	}
	return &Result{
		ID:       "E16",
		Title:    "Churn: crash, stabilize, rejoin — recall and recovery cost vs crash rate",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"shape check: dht's recall-stab returns to ~1 with victims STILL DOWN (successor-list re-homing); locality-bound models (passnet/softstate) cannot see the victims' records until they heal",
			"rounds counts post-heal maintenance rounds until every acknowledged publish is queryable again; rec-bytes is the wire cost of that recovery window, with the recall probes' own traffic metered out",
			"passnet vs passnet-replay isolates the rejoin snapshot: the snapshot converges immediately (0 rounds) where replay waits on gossip; bytes-wise replay is lean here because each origin queues ONE batched delta — the many-deltas-missed regime where the snapshot also wins on bytes is pinned by the FastRejoin conformance law",
			"victims never include sites[0] or sites[1] (central's warehouse, softstate's index nodes): anchor loss is total outage (E15's contrast), not churn — recall columns measure data reachability, not index-service availability",
		},
	}, nil
}

// liveQueriers picks three well-spread non-victim query sites.
func liveQueriers(sites []netsim.SiteID, isVictim map[netsim.SiteID]bool) []netsim.SiteID {
	out := make([]netsim.SiteID, 0, 3)
	for _, idx := range []int{0, len(sites) / 2, len(sites) - 1} {
		for isVictim[sites[idx%len(sites)]] {
			idx++
		}
		out = append(out, sites[idx%len(sites)])
	}
	return out
}
