package cluster

import (
	"fmt"

	"pass/internal/arch"
	"pass/internal/arch/roster"
	"pass/internal/arch/scenario"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// This file is the conformance bridge. A Schedule is a seeded, fully
// deterministic workload in the E14/E16 shape: publish pubs records
// from rotating origins (each publish retried up to 4 attempts),
// optionally kill one node mid-schedule, run maintenance ticks, then
// query from every live node and score recall over the acked set. The
// SAME schedule runs against the netsim-backed model (SimRecall) and
// against a live multi-process cluster (RealRecall); CompareRecall
// asserts the two agree within Tolerance.
//
// What agreement means: loss realisations necessarily differ (the
// simulator draws from its seeded stream, the sockets from theirs), so
// the bridge asserts recall BANDS, not equality — the claim under test
// is that the simulator's findings (E14's "gossip and DHT keep recall
// under loss", E16's "replication recovers a crashed node's keys")
// transfer to real processes.

// Tolerance is the stated recall agreement band between the netsim row
// and the real-socket row of the same schedule.
const Tolerance = 0.15

// Schedule is one seeded cross-check workload.
type Schedule struct {
	Seed     uint64
	Nodes    int
	Loss     float64 // packet-loss rate applied to inter-node traffic
	Pubs     int
	Ticks    int
	KillNode int // node index to SIGKILL (sim: Fail) after publishing; -1 = none
}

// attempts mirrors the E14 publisher convention: a failed publish is
// re-offered up to three more times.
const attempts = 4

const domain = "xcheck"

// schedulePubs builds the schedule's deterministic publish stream
// (scenario.Raw, tagged with the seed): record i originates at node
// (i*7) mod N — the taggedPubs rotation. Origin holds that node index;
// each backend maps it onto its own sites.
func schedulePubs(sc Schedule) []arch.Pub {
	pubs := make([]arch.Pub, sc.Pubs)
	for i := range pubs {
		pubs[i] = scenario.Raw(i, byte(sc.Seed), netsim.SiteID((i*7)%sc.Nodes),
			provenance.Attr(provenance.KeyDomain, provenance.String(domain)))
	}
	return pubs
}

// SimRecall runs the schedule on netsim with the named roster model
// ("passnet" or "dht" in the cross-check) — the E14/E16 row this
// schedule's real run is checked against.
func SimRecall(mode string, sc Schedule) (float64, error) {
	build, ok := roster.Lookup(mode)
	if !ok {
		return 0, fmt.Errorf("crosscheck: unknown mode %q", mode)
	}
	net, sites := netsim.RandomTopology(netsim.Config{
		LossRate: sc.Loss, Seed: sc.Seed,
	}, 1, sc.Nodes, sc.Seed+9000)
	m := build(net, sites)

	acked := make(map[provenance.ID]bool, sc.Pubs)
	for _, p := range schedulePubs(sc) {
		p.Origin = sites[p.Origin]
		o, err := scenario.Offer(m, p, attempts)
		if err != nil {
			return 0, err
		}
		if o.Acked {
			acked[p.ID] = true
		}
	}
	if sc.KillNode >= 0 {
		net.Fail(sites[sc.KillNode])
	}
	for t := 0; t < sc.Ticks; t++ {
		if err := m.Tick(); err != nil {
			return 0, fmt.Errorf("sim tick: %w", err)
		}
	}
	if len(acked) == 0 {
		return 0, fmt.Errorf("sim: nothing acked")
	}

	var queriers []netsim.SiteID
	for i, s := range sites {
		if i != sc.KillNode {
			queriers = append(queriers, s)
		}
	}
	per, _, err := scenario.QueryRecall(m, queriers, provenance.KeyDomain, provenance.String(domain), acked, 1)
	if err != nil {
		return 0, err
	}
	recall := 0.0
	for _, r := range per {
		recall += r
	}
	return recall / float64(len(queriers)), nil
}

// RealRecall runs the same schedule against a live cluster: real
// publishes through real sockets, a real SIGKILL for the kill verb,
// seeded drop rules for the loss dimension, and queries from every
// surviving process.
func RealRecall(c *Cluster, sc Schedule) (float64, error) {
	if sc.Loss > 0 {
		if err := c.SetLoss(sc.Loss, sc.Seed); err != nil {
			return 0, err
		}
	}
	acked := make(map[provenance.ID]bool, sc.Pubs)
	for _, p := range schedulePubs(sc) {
		// An unacked publish simply isn't scored, as in E14.
		for a := 0; a < attempts; a++ {
			if id, err := c.Client().Put(c.Addr(int(p.Origin)), p.Rec); err == nil {
				acked[id] = true
				break
			}
		}
	}
	if sc.KillNode >= 0 {
		if err := c.Kill(sc.KillNode); err != nil {
			return 0, err
		}
	}
	for t := 0; t < sc.Ticks; t++ {
		if err := c.TickAll(); err != nil {
			return 0, err
		}
	}
	if len(acked) == 0 {
		return 0, fmt.Errorf("real: nothing acked")
	}

	recall, queriers := 0.0, 0
	for i := 0; i < c.N(); i++ {
		if !c.Alive(i) {
			continue
		}
		queriers++
		got, err := c.Client().QueryAttr(c.Addr(i), provenance.KeyDomain, provenance.String(domain))
		if err != nil {
			continue // unreachable contact scores 0, as in E14
		}
		hit := 0
		for _, id := range got {
			if acked[id] {
				hit++
			}
		}
		recall += float64(hit) / float64(len(acked))
	}
	if queriers == 0 {
		return 0, fmt.Errorf("real: no live queriers")
	}
	return recall / float64(queriers), nil
}

// CompareRecall runs the schedule on both backends and checks the
// agreement band. Returns (sim, real, error).
func CompareRecall(c *Cluster, mode string, sc Schedule) (float64, float64, error) {
	sim, err := SimRecall(mode, sc)
	if err != nil {
		return 0, 0, err
	}
	real, err := RealRecall(c, sc)
	if err != nil {
		return sim, 0, err
	}
	if diff := sim - real; diff > Tolerance || diff < -Tolerance {
		return sim, real, fmt.Errorf(
			"recall diverged on seed %d: netsim %.3f vs cluster %.3f (tolerance %.2f)",
			sc.Seed, sim, real, Tolerance)
	}
	return sim, real, nil
}
