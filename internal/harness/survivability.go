package harness

import (
	"fmt"
	"time"

	"pass/internal/arch"
	"pass/internal/arch/scenario"
	"pass/internal/metrics"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// E14Survivability — the fault dimension the Section IV comparison only
// gestures at ("Reliability: When a failure occurs ... is the metadata
// service still available?"). Every architecture runs the same workload
// over the same seeded random topology while the network drops packets,
// at increasing scale; the table reports how much of the acknowledged
// metadata each model can still find, and what the fault handling costs
// on the WAN (retransmissions are real bytes).
//
// Publishers behave like real clients: a failed publish is re-offered up
// to three more times, then given up (the acked column). Queriers issue
// one attempt each — E14 is about exposing degradation, so queries are
// NOT retried the way the conformance suite's convergence checks are.
//
// The latency columns are where loss actually bites: every retransmission
// waits out an RTO backoff (arch.Retry), so mean publish and query
// latency climb steeply with the loss rate even while recall holds — the
// fault tolerance is paid for in time as well as bandwidth.
func (r *Runner) E14Survivability() (*Result, error) {
	table := metrics.NewTable("E14: survivability (recall, latency & WAN bytes vs loss × sites)",
		"model", "sites", "loss", "acked", "recall", "pub-ms", "query-ms", "wan-bytes", "dropped-msgs")
	findings := map[string]float64{}

	const sitesPerZone = 4
	pubsPer := r.scale.n(120)
	type cell struct {
		nSites, li, mi int
		loss           float64
	}
	var cells []cell
	for _, nSites := range []int{16, 64, 256} {
		for li, loss := range []float64{0, 0.05, 0.20} {
			for mi := range comparison {
				cells = append(cells, cell{nSites, li, mi, loss})
			}
		}
	}
	type out struct {
		name          string
		acked, pubs   int
		recall        float64
		pubMs, qMs    float64
		wan, droppedM int64
	}
	outs, err := runCells(r, cells, func(c cell) (out, error) {
		net, sites := netsim.RandomTopology(netsim.Config{
			LossRate: c.loss,
			Seed:     uint64(c.nSites*100 + c.li*10 + c.mi + 1),
		}, c.nSites/sitesPerZone, sitesPerZone, uint64(9000+c.nSites))
		m := entrant(comparison[c.mi])(net, sites)

		pubs, err := taggedPubs(net, sites, "surv", 0xE1, 0, pubsPer, nil)
		if err != nil {
			return out{}, err
		}
		acked := make(map[provenance.ID]bool, len(pubs))
		var pubLat time.Duration
		pubAttempts := 0
		for _, p := range pubs {
			o, err := scenario.Offer(m, p, 4)
			if err != nil {
				return out{}, err
			}
			pubLat += o.Total
			pubAttempts += o.Tries
			if o.Acked {
				acked[p.ID] = true
			}
		}
		for tick := 0; tick < 6; tick++ {
			if err := m.Tick(); err != nil {
				return out{}, fmt.Errorf("%s tick: %w", m.Name(), err)
			}
		}

		queriers := []netsim.SiteID{
			sites[0], sites[len(sites)/3], sites[2*len(sites)/3], sites[len(sites)-1],
		}
		recall := 0.0
		var qLat time.Duration
		if len(acked) > 0 {
			per, lat, err := scenario.QueryRecall(m, queriers, provenance.KeyDomain, provenance.String("surv"), acked, 1)
			if err != nil {
				return out{}, err
			}
			for _, r := range per {
				recall += r
			}
			recall /= float64(len(queriers))
			qLat = lat
		}

		st := net.Stats()
		return out{
			name:   m.Name(),
			acked:  len(acked),
			pubs:   len(pubs),
			recall: recall,
			pubMs:  float64(pubLat.Microseconds()) / float64(pubAttempts) / 1000,
			qMs:    float64(qLat.Microseconds()) / float64(len(queriers)) / 1000,
			wan:    st.WANBytes, droppedM: st.DroppedMsgs,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		o := outs[i]
		lossPct := int(c.loss * 100)
		table.AddRow(o.name, c.nSites, fmt.Sprintf("%d%%", lossPct),
			fmt.Sprintf("%d/%d", o.acked, o.pubs),
			fmt.Sprintf("%.3f", o.recall),
			fmt.Sprintf("%.2f", o.pubMs), fmt.Sprintf("%.2f", o.qMs),
			o.wan, o.droppedM)
		tag := fmt.Sprintf("%s_n%d_l%d", o.name, c.nSites, lossPct)
		findings["recall_"+tag] = o.recall
		findings["wan_"+tag] = float64(o.wan)
		findings["acked_"+tag] = float64(o.acked)
		findings["publat_"+tag] = o.pubMs
		findings["qlat_"+tag] = o.qMs
	}
	return &Result{
		ID:       "E14",
		Title:    "Survivability: recall and WAN cost under packet loss at scale",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"shape check: at 0% loss every model acks and recalls everything; under loss, locally-committing models (feddb/softstate/passnet) keep acking while 2PC (distdb) starts refusing",
			"WAN bytes include retransmissions and dropped messages — fault tolerance is paid for in bandwidth",
			"pub-ms/query-ms include RTO backoff: each retransmission waits out an exponentially growing timeout, so WAN-synchronous models' latency climbs steeply with loss while locally-acking models stay flat",
		},
	}, nil
}

// taggedPubs builds one deterministic record per publish slot
// (scenario.Raw), tagged with the given domain attribute (tag keeps
// different experiments' digests distinct) plus the origin's zone (so
// hierarchical partitioning has a primary attribute to work with).
// Sequence numbers start at base; origins stride over the roster,
// skipping sites in skip (crashed producers). Shared by the fault
// experiments E14 and E16.
func taggedPubs(net *netsim.Network, sites []netsim.SiteID, domain string, tag byte, base, n int, skip map[netsim.SiteID]bool) ([]arch.Pub, error) {
	pubs := make([]arch.Pub, 0, n)
	for seq := base; seq < base+n; seq++ {
		idx := (seq * 7) % len(sites)
		for skip[sites[idx]] {
			idx = (idx + 1) % len(sites)
		}
		zone, err := scenario.ZoneAttr(net, sites[idx])
		if err != nil {
			return nil, err
		}
		pubs = append(pubs, scenario.Raw(seq, tag, sites[idx],
			provenance.Attr(provenance.KeyDomain, provenance.String(domain)), zone))
	}
	return pubs, nil
}
