package harness

import (
	"fmt"

	"pass/internal/arch"
	"pass/internal/arch/central"
	"pass/internal/arch/passnet"
	"pass/internal/arch/scenario"
	"pass/internal/arch/siteview"
	"pass/internal/arch/softstate"
	"pass/internal/metrics"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// e15Out is one E15 cell's contribution: ordered table rows plus named
// findings, assembled after the parallel section.
type e15Out struct {
	rows [][]any
	kvs  []kv
}

// E15SplitBrain — the consistency story Section IV only names in passing
// ("Consistency: Is the metadata service consistent with the actual
// data?") made observable. A wide-area federation WILL partition; the
// question is what queries look like while it is split and how fast the
// picture heals. The per-site view model (siteview) lets the experiment
// watch the split happen: each side keeps ingesting locally, each side's
// views list only its own side's digests, and the same QueryAttr asked
// from opposite sides returns two different — both locally correct —
// answers. After the partition heals, queued digest deltas drain and
// every site's view converges to one fingerprint.
//
// The experiment then keeps going where the naive gossip starts to hurt:
// a duplicate re-offer wave (an at-least-once ingest pipeline re-sending
// what it already sent) and a lossy burst. The passnet roster runs the
// IDENTICAL narrative twice — baseline gossip and the efficient path
// (dupemap suppression, per-peer delta coalescing, armed anti-entropy
// pulls) — so the gossip-bytes columns compare like for like; the
// gossip_reduction finding is the efficient path's savings at equal
// recall and convergence.
//
// Two contrast cells complete the table: softstate's index tier wrapped
// in per-node views (softstate.Viewful) shows split-brain happening one
// layer up — the two index nodes' federation pictures diverge and
// re-converge through charged index anti-entropy — and the centralized
// warehouse (the paper's strawman) shows the alternative to divergence:
// total outage for the warehouse-less side.
//
// The entrants are independent simulations on private networks, so they
// run as four parallel cells.
func (r *Runner) E15SplitBrain() (*Result, error) {
	table := metrics.NewTable("E15: split-brain (partition → divergent views → heal → convergence)",
		"model", "phase", "querier", "sees-left", "sees-right", "views-converged", "fp-rate", "gossip-bytes", "dup-supp", "pull-rounds")
	findings := map[string]float64{}

	nPer := r.scale.n(40)
	cells := []int{0, 1, 2, 3}
	outs, err := runCells(r, cells, func(ci int) (e15Out, error) {
		switch ci {
		case 0:
			return r.e15Passnet(nPer, "passnet", passnet.Options{}, "base")
		case 1:
			// PullEvery 1: an armed pair re-syncs on the next tick, so
			// suppression never costs the efficient leg a convergence
			// round (the DuplicateSuppression law's configuration).
			return r.e15Passnet(nPer, "passnet-eff", passnet.Options{EfficientGossip: true, PullEvery: 1}, "eff")
		case 2:
			return r.e15SoftstateViews(nPer)
		default:
			return r.e15CentralContrast(nPer)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		for _, row := range o.rows {
			table.AddRow(row...)
		}
		for _, f := range o.kvs {
			findings[f.k] = f.v
		}
	}
	if base := findings["gossip_bytes_base"]; base > 0 {
		findings["gossip_reduction"] = 1 - findings["gossip_bytes_eff"]/base
	}

	return &Result{
		ID:       "E15",
		Title:    "Split-brain: divergent per-site views under partition, convergence after heal",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"shape check: mid-partition each passnet side answers with exactly its own side's records (different answers to the SAME query) and views disagree; after heal + gossip every view fingerprint matches and both sides see everything",
			"passnet vs passnet-eff run the IDENTICAL narrative (partition → heal → duplicate re-offers → lossy burst); gossip_reduction is the efficient path's byte savings at equal recall and no worse convergence — dup-supp counts re-offers the dupemap swallowed, pull-rounds the armed anti-entropy exchanges",
			"softstate+views: split-brain one layer up — the two index nodes' federation views diverge under the partition and re-converge through charged index-tier anti-entropy; plain queries keep their sharded soft-state semantics (a querier whose attribute shard sits across the cut gets an outage, not a stale answer)",
			"contrast: central's warehouse-less side cannot publish or query at all during the split — unavailability instead of divergence",
			"fp-rate: Bloom misroutes per remote contact — candidate routing goes through the per-peer filters (View.MayHold), so a false positive is a charged empty round trip, never a wrong answer",
		},
	}, nil
}

// e15Passnet runs the split-brain narrative proper — partition, divergent
// publishing on both sides, heal, convergence — then the efficiency
// phases: duplicate re-offer waves and a lossy burst, converging again.
// tag is "base" or "eff"; the finding keys the regression suite pins stay
// unprefixed on the base run.
func (r *Runner) e15Passnet(nPer int, label string, opts passnet.Options, tag string) (e15Out, error) {
	var o e15Out
	pfx := ""
	if tag != "base" {
		pfx = tag + "_"
	}

	const sitesPerZone = 4
	zones := 6 // 24 sites
	net, sites := netsim.RandomTopology(netsim.Config{}, zones, sitesPerZone, 15151)
	m := passnet.New(net, sites, opts)
	ve := siteview.Exposer(m)

	left, right := sites[:len(sites)/2], sites[len(sites)/2:]
	domain := provenance.String("split")
	all := make(map[provenance.ID]bool)

	// publishBatch offers n records from the given origins, each `times`
	// times (an at-least-once pipeline re-offering), and returns the set.
	publishBatch := func(origins []netsim.SiteID, base, n, times int) (map[provenance.ID]bool, error) {
		out := make(map[provenance.ID]bool, n)
		for i := 0; i < n; i++ {
			origin := origins[i%len(origins)]
			zone, err := scenario.ZoneAttr(net, origin)
			if err != nil {
				return nil, err
			}
			p := scenario.Raw(base+i, 0xE5, origin, provenance.Attr(provenance.KeyDomain, domain), zone)
			for k := 0; k < times; k++ {
				if _, err := m.Publish(p); err != nil {
					return nil, fmt.Errorf("publish %d: %w", base+i, err)
				}
			}
			out[p.ID] = true
			all[p.ID] = true
		}
		return out, nil
	}

	recallSides := func(q netsim.SiteID, wantL, wantR map[provenance.ID]bool) (float64, float64, error) {
		got, _, err := m.QueryAttr(q, provenance.KeyDomain, domain)
		if err != nil {
			return 0, 0, err
		}
		hitL, hitR := 0, 0
		for _, id := range got {
			if wantL[id] {
				hitL++
			}
			if wantR[id] {
				hitR++
			}
		}
		return float64(hitL) / float64(len(wantL)), float64(hitR) / float64(len(wantR)), nil
	}

	viewsConverged := func() float64 {
		fp := ve.SiteView(sites[0]).Fingerprint()
		for _, s := range sites[1:] {
			if ve.SiteView(s).Fingerprint() != fp {
				return 0
			}
		}
		return 1
	}

	// fpRate is the Bloom misroute rate so far: query routing goes
	// through the per-peer filters (View.MayHold), so a false positive is
	// a real charged round trip — this column measures how often.
	fpRate := func() float64 {
		if m.RemoteContacts() == 0 {
			return 0
		}
		return float64(m.FalsePositives()) / float64(m.RemoteContacts())
	}
	gossipCols := func() (int64, int64, int64) {
		gs := m.GossipStats()
		return gs.Bytes, gs.DupSuppressed, gs.PullRounds
	}

	// Phase 1: partition, both sides publish, digests gossip per side.
	net.Partition(left, right)
	wantL, err := publishBatch(left, 0, nPer, 1)
	if err != nil {
		return o, err
	}
	wantR, err := publishBatch(right, 1000, nPer, 1)
	if err != nil {
		return o, err
	}
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			return o, err
		}
	}

	phase := "partitioned"
	for _, q := range []struct {
		name string
		site netsim.SiteID
	}{{"left", left[1]}, {"right", right[1]}} {
		rl, rr, err := recallSides(q.site, wantL, wantR)
		if err != nil {
			return o, err
		}
		conv := viewsConverged()
		gb, ds, pr := gossipCols()
		o.rows = append(o.rows, []any{label, phase, q.name,
			fmt.Sprintf("%.2f", rl), fmt.Sprintf("%.2f", rr), conv, fmt.Sprintf("%.4f", fpRate()), gb, ds, pr})
		o.kvs = append(o.kvs,
			kv{fmt.Sprintf("%s%s_sees_left_%s", pfx, q.name, phase), rl},
			kv{fmt.Sprintf("%s%s_sees_right_%s", pfx, q.name, phase), rr})
	}
	o.kvs = append(o.kvs,
		kv{pfx + "views_converged_partitioned", viewsConverged()},
		kv{pfx + "pending_partitioned", float64(m.PendingDigests())})

	// Phase 2: heal; queued deltas drain on the next gossip rounds.
	net.HealPartition()
	for i := 0; i < 4; i++ {
		if err := m.Tick(); err != nil {
			return o, err
		}
	}
	phase = "healed"
	for _, q := range []struct {
		name string
		site netsim.SiteID
	}{{"left", left[0]}, {"right", right[0]}} {
		rl, rr, err := recallSides(q.site, wantL, wantR)
		if err != nil {
			return o, err
		}
		gb, ds, pr := gossipCols()
		o.rows = append(o.rows, []any{label, phase, q.name,
			fmt.Sprintf("%.2f", rl), fmt.Sprintf("%.2f", rr), viewsConverged(), fmt.Sprintf("%.4f", fpRate()), gb, ds, pr})
		o.kvs = append(o.kvs,
			kv{fmt.Sprintf("%s%s_sees_left_%s", pfx, q.name, phase), rl},
			kv{fmt.Sprintf("%s%s_sees_right_%s", pfx, q.name, phase), rr})
	}
	o.kvs = append(o.kvs,
		kv{pfx + "views_converged_healed", viewsConverged()},
		kv{pfx + "pending_healed", float64(m.PendingDigests())},
		kv{pfx + "fp_rate", fpRate()},
		kv{pfx + "fp_contacts", float64(m.FalsePositives())},
		kv{pfx + "remote_contacts", float64(m.RemoteContacts())})

	// Phase 3: duplicate re-offer waves on the healed network — every
	// record offered three times, the naive path gossips the redundancy.
	for w := 0; w < 3; w++ {
		if _, err := publishBatch(sites, 2000+w*nPer, nPer, 3); err != nil {
			return o, err
		}
		if err := m.Tick(); err != nil {
			return o, err
		}
	}
	if err := m.Tick(); err != nil {
		return o, err
	}
	gb, ds, pr := gossipCols()
	o.rows = append(o.rows, []any{label, "dup-offers", "-", "-", "-", viewsConverged(), fmt.Sprintf("%.4f", fpRate()), gb, ds, pr})

	// Phase 4: the re-offers keep coming through a lossy burst, then
	// convergence — charged lost pushes are where naive re-gossip bleeds
	// bytes and the armed pull earns its keep.
	net.SetLossRate(0.2)
	for w := 0; w < 3; w++ {
		if _, err := publishBatch(sites, 6000+w*nPer, nPer/2, 2); err != nil {
			return o, err
		}
		if err := m.Tick(); err != nil {
			return o, err
		}
	}
	net.SetLossRate(0)
	convRounds := 0
	for ; viewsConverged() != 1; convRounds++ {
		if convRounds > 20 {
			return o, fmt.Errorf("%s: views did not converge within 20 rounds after the lossy burst", label)
		}
		if err := m.Tick(); err != nil {
			return o, err
		}
	}
	recallFinal, _, err := recallSides(sites[2], all, all)
	if err != nil {
		return o, err
	}
	gb, ds, pr = gossipCols()
	o.rows = append(o.rows, []any{label, "lossy+converged", "-",
		fmt.Sprintf("%.2f", recallFinal), fmt.Sprintf("%.2f", recallFinal), viewsConverged(), fmt.Sprintf("%.4f", fpRate()), gb, ds, pr})
	o.kvs = append(o.kvs,
		kv{"gossip_bytes_" + tag, float64(gb)},
		kv{"dup_suppressed_" + tag, float64(ds)},
		kv{"pull_rounds_" + tag, float64(pr)},
		kv{"conv_rounds_" + tag, float64(convRounds)},
		kv{"recall_final_" + tag, recallFinal})
	return o, nil
}

// e15SoftstateViews runs the partition against the view-bearing
// soft-state service: one index node per side, so the partition splits
// the index tier itself and the two nodes' federation views diverge.
func (r *Runner) e15SoftstateViews(nPer int) (e15Out, error) {
	var o e15Out
	net, sites := netsim.RandomTopology(netsim.Config{}, 6, 4, 15153) // 24 sites
	left, right := sites[:len(sites)/2], sites[len(sites)/2:]
	nodes := []netsim.SiteID{left[0], right[0]}
	m := softstate.NewViewful(net, sites, nodes, 1)
	domain := provenance.String("split")

	publishSide := func(side []netsim.SiteID, base, n int) error {
		for i := 0; i < n; i++ {
			origin := side[i%len(side)]
			var digest [32]byte
			digest[0], digest[1], digest[2], digest[3] = byte(base+i), byte((base+i)>>8), 0xE5, 0x55
			rec, id, err := provenance.NewRaw(digest, 64).
				Attrs(provenance.Attr(provenance.KeyDomain, domain)).
				CreatedAt(int64(base+i) + 1).
				Build()
			if err != nil {
				return err
			}
			if _, err := m.Publish(arch.Pub{ID: id, Rec: rec, Origin: origin}); err != nil {
				return fmt.Errorf("publish %d: %w", base+i, err)
			}
		}
		return nil
	}
	converged := func() float64 {
		if m.SiteView(nodes[0]).Fingerprint() == m.SiteView(nodes[1]).Fingerprint() {
			return 1
		}
		return 0
	}
	// seenFrom reports the fraction of the published records a querier
	// can see, or -1 when its attribute shard is unreachable (the honest
	// sharded-soft-state outage). Any other query error is a model bug.
	seenFrom := func(q netsim.SiteID, total int) (float64, error) {
		got, _, err := m.QueryAttr(q, provenance.KeyDomain, domain)
		switch {
		case arch.IsUnavailable(err):
			return -1, nil
		case err != nil:
			return 0, fmt.Errorf("softstate query from %d: %w", q, err)
		}
		return float64(len(got)) / float64(total), nil
	}

	net.Partition(left, right)
	if err := publishSide(left, 0, nPer); err != nil {
		return o, err
	}
	if err := publishSide(right, 1000, nPer); err != nil {
		return o, err
	}
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			return o, err
		}
	}
	fmtSeen := func(v float64) string {
		if v < 0 {
			return "outage"
		}
		return fmt.Sprintf("%.2f", v)
	}
	gsMid := m.GossipStats().Bytes
	seenL, err := seenFrom(left[1], 2*nPer)
	if err != nil {
		return o, err
	}
	seenR, err := seenFrom(right[1], 2*nPer)
	if err != nil {
		return o, err
	}
	o.rows = append(o.rows,
		[]any{"softstate+views", "partitioned", "left", fmtSeen(seenL), "-", converged(), "-", gsMid, "-", "-"},
		[]any{"softstate+views", "partitioned", "right", fmtSeen(seenR), "-", converged(), "-", gsMid, "-", "-"})
	o.kvs = append(o.kvs, kv{"soft_views_converged_partitioned", converged()})

	net.HealPartition()
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			return o, err
		}
	}
	gsHealed := m.GossipStats().Bytes
	seenHealed, err := seenFrom(left[1], 2*nPer)
	if err != nil {
		return o, err
	}
	o.rows = append(o.rows,
		[]any{"softstate+views", "healed", "left", fmtSeen(seenHealed), "-", converged(), "-", gsHealed, "-", "-"})
	o.kvs = append(o.kvs,
		kv{"soft_views_converged_healed", converged()},
		kv{"soft_index_gossip_bytes", float64(gsHealed)},
		kv{"soft_recall_healed", seenHealed})
	return o, nil
}

// e15CentralContrast runs the centralized strawman through the same
// partition: publishes attempted from both sides, queries from both
// sides, no divergence possible — one side simply goes dark.
func (r *Runner) e15CentralContrast(nPer int) (e15Out, error) {
	var o e15Out
	net, sites := netsim.RandomTopology(netsim.Config{}, 6, 4, 15152)
	m := central.New(net, sites[0]) // warehouse on the left side
	left, right := sites[:len(sites)/2], sites[len(sites)/2:]
	net.Partition(left, right)

	acked := map[string]int{"left": 0, "right": 0}
	for i := 0; i < nPer; i++ {
		// Fixed left-then-right order: map iteration would scramble the
		// publish interleaving across runs (the determinism law).
		for si, side := range []string{"left", "right"} {
			origin := left[i%len(left)]
			if side == "right" {
				origin = right[i%len(right)]
			}
			var digest [32]byte
			digest[0], digest[1], digest[2], digest[3] = byte(i), byte(i>>8), 0xE5, byte(si+1)
			rec, id, err := provenance.NewRaw(digest, 64).
				Attrs(provenance.Attr(provenance.KeyDomain, provenance.String("split"))).
				CreatedAt(int64(i) + 1).
				Build()
			if err != nil {
				return o, err
			}
			off, err := scenario.Offer(m, arch.Pub{ID: id, Rec: rec, Origin: origin}, 1)
			if err != nil {
				return o, err
			}
			if off.Acked {
				acked[side]++
			}
		}
	}
	for _, side := range []string{"left", "right"} {
		q := left[1]
		if side == "right" {
			q = right[1]
		}
		seen := 0.0
		if got, _, err := m.QueryAttr(q, provenance.KeyDomain, provenance.String("split")); err == nil {
			seen = float64(len(got)) / float64(acked["left"]+acked["right"])
		} else if !arch.IsUnavailable(err) {
			return o, err
		}
		o.rows = append(o.rows, []any{"central", "partitioned", side, fmt.Sprintf("%.2f", seen), "-", "-", "-", "-", "-", "-"})
		o.kvs = append(o.kvs,
			kv{"central_" + side + "_acked", float64(acked[side])},
			kv{"central_" + side + "_sees", seen})
	}
	return o, nil
}
