package harness

import (
	"errors"
	"fmt"
	"time"

	"pass/internal/arch"
	"pass/internal/arch/scenario"
	"pass/internal/metrics"
	"pass/internal/netsim"
	"pass/internal/provenance"
	"pass/internal/ratelimit"
	"pass/internal/workload"
)

// E18 constants. overloadRound is the simulated wall-clock length of one
// engine round AND the per-round serving budget: a model's ingest
// capacity is however many publishes fit one round's worth of its own
// simulated critical-path latency. That is what makes the collapse
// comparison architectural rather than tuned — passnet's local append
// costs microseconds (capacity ~thousands/round) while central's
// warehouse round trip costs milliseconds (capacity ~a handful/round),
// and both face the same open-loop arrival stream.
const (
	overloadRound    = 20 * time.Millisecond
	overloadQueueCap = 5 // MaxBacklog for admitting models, in rounds
	overloadDrain    = 4 // post-load grace rounds before measuring
)

// overloadPub builds one E18 publish: zone attr from the origin site (the
// hierarchy's partition key) plus a Zipf-drawn "hot" attribute bucket the
// closed-loop queries chase.
func overloadPub(net *netsim.Network, origin netsim.SiteID, seq, hotKey int) (arch.Pub, error) {
	zone, err := scenario.ZoneAttr(net, origin)
	if err != nil {
		return arch.Pub{}, err
	}
	return scenario.Raw(seq, 0xE8, origin,
		provenance.Attr(provenance.KeyDomain, provenance.String("overload")), zone,
		provenance.Attr("hot", provenance.String(fmt.Sprintf("h%d", hotKey)))), nil
}

// E18Overload — the paper's motivating deployments (congestion-zone
// traffic, ambulance fleets, volcano monitoring) see bursty, Zipf-skewed
// traffic from huge client populations; every earlier experiment drives a
// flat rate. E18 drives each architecture with the SAME seeded open-loop
// arrival schedule (workload.OpenLoop: bursty shape, Zipf-skewed clients
// and hot keys) at 1x, 10x, and 100x nominal load, and measures who
// degrades gracefully versus who collapses.
//
// The engine models serving capacity honestly in simulated time: each
// round offers the generator's arrivals, then drains the model's publish
// queue until one round's budget of simulated critical-path latency is
// spent. Work that does not fit waits — client-observed latency is queue
// wait plus service time — so an overloaded model shows unbounded p99/
// p999 growth and, at measurement time, a backlog of never-indexed
// publishes (the recall falloff). The *-adm rows run the same model under
// a ratelimit.Admission controller (arch.Admitter): per-client token
// buckets plus a bounded queue, so overload work is shed with a cheap
// refusal instead of queueing forever — bounded tail latency, explicit
// shed counters, same recall story but now the clients know.
//
// Columns: offered/served publishes, shed (rate-bucket + queue-bound for
// admitting rows, "-" otherwise), backlog still queued at measurement,
// recall over ALL offered publishes, p50/p99/p999 of client-observed
// publish latency (completed publishes only — the backlog column is the
// coordinated-omission remainder), q-p99 of hot-key query latency, and
// WAN bytes.
func (r *Runner) E18Overload() (*Result, error) {
	table := metrics.NewTable("E18: overload (open-loop bursty load at 1x/10x/100x nominal)",
		"model", "mult", "offered", "served", "shed", "backlog", "recall",
		"p50-ms", "p99-ms", "p999-ms", "q-p99-ms", "wan-bytes")
	findings := map[string]float64{}

	// Admission configs are capacity-matched, the way an operator would
	// provision them. The expensive-ingest models (central, dht) get tight
	// per-client buckets — fair share at nominal load is well under one
	// publish per client per round even for the Zipf head, so rate 4 is
	// silent at 1x and bites the hot producers at 10-100x. passnet's local
	// append has capacity to spare, so its controller disables the
	// per-client bucket and keeps only the bounded queue: admission then
	// costs nothing until the architecture itself runs out of headroom.
	tightAdm := ratelimit.Config{
		PerClientRate:  4,
		PerClientBurst: 12,
		Budget:         overloadRound,
		MaxBacklog:     overloadQueueCap * overloadRound,
	}
	looseAdm := ratelimit.Config{
		Budget:     overloadRound,
		MaxBacklog: overloadQueueCap * overloadRound,
	}
	// Each row is a roster entrant plus, for the *-adm rows, the
	// admission controller installed after the build.
	entrants := []struct {
		label, name string
		adm         *ratelimit.Config
	}{
		{"central", "central", nil},
		{"central-adm", "central", &tightAdm},
		{"distdb", "distdb", nil},
		{"feddb", "feddb", nil},
		{"softstate", "softstate", nil},
		{"hier", "hier", nil},
		{"dht", "dht", nil},
		{"dht-adm", "dht", &tightAdm},
		{"passnet", "passnet", nil},
		{"passnet-adm", "passnet", &looseAdm},
	}
	mults := []float64{1, 10, 100}

	rounds := r.scale.n(24)
	if rounds < 8 {
		rounds = 8
	}

	type cell struct{ ei, gi int }
	var cells []cell
	for _, gi := range []int{0, 1, 2} {
		for ei := range entrants {
			cells = append(cells, cell{ei, gi})
		}
	}
	type out struct {
		offered, served      int
		shedRate, shedQueue  int
		backlog              int
		recall               float64
		p50, p99, p999, qp99 float64
		wan                  int64
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	outs, err := runCells(r, cells, func(c cell) (out, error) {
		ent := entrants[c.ei]
		mult := mults[c.gi]
		net, sites := newGrid(16)
		m := entrant(ent.name)(net, sites)
		var adm *ratelimit.Admission
		if ent.adm != nil {
			adm = ratelimit.NewAdmission(*ent.adm)
			m.(arch.Admitter).SetAdmission(adm)
		}
		// One arrival schedule per multiplier, shared by every model in
		// that column: the comparison is architectures under identical
		// open-loop load.
		gen := workload.NewOpenLoop(workload.OpenLoopConfig{
			Seed:            uint64(1800 + c.gi),
			Clients:         64,
			HotKeys:         12,
			NominalPerRound: 2,
			Multiplier:      mult,
			Shape:           workload.ShapeBursts,
			Period:          8,
			BurstLen:        2,
			BurstGain:       3,
			ZipfS:           1.1,
			QueriesPerRound: 4,
		})
		pubH := metrics.NewHistogram(1 << 15)
		qH := metrics.NewHistogram(1 << 12)
		type pend struct {
			p arch.Pub
			r int
		}
		var queue []pend
		var ground []provenance.ID
		var o out
		seq := 0
		net.ResetStats()

		drain := func(round int) error {
			var spent time.Duration
			for len(queue) > 0 && spent < overloadRound {
				it := queue[0]
				queue = queue[1:]
				d, err := m.Publish(it.p)
				if err != nil {
					return fmt.Errorf("%s %gx publish: %w", ent.label, mult, err)
				}
				spent += d
				wait := time.Duration(round-it.r) * overloadRound
				pubH.Observe(ms(wait + d))
				o.served++
			}
			return nil
		}

		for round := 0; round < rounds+overloadDrain; round++ {
			if round < rounds {
				for _, a := range gen.Arrivals(round) {
					p, err := overloadPub(net, sites[a.Client%len(sites)], seq, a.Key)
					if err != nil {
						return out{}, err
					}
					seq++
					o.offered++
					ground = append(ground, p.ID)
					if adm == nil {
						queue = append(queue, pend{p, round})
						continue
					}
					d, err := m.Publish(p)
					switch {
					case err == nil:
						o.served++
						pubH.Observe(ms(d))
					case errors.Is(err, ratelimit.ErrRateLimited):
						o.shedRate++
					case errors.Is(err, ratelimit.ErrOverload):
						o.shedQueue++
					default:
						return out{}, fmt.Errorf("%s %gx publish: %w", ent.label, mult, err)
					}
				}
			}
			if adm == nil {
				if err := drain(round); err != nil {
					return out{}, err
				}
			}
			if round < rounds {
				for _, q := range gen.Queries(round) {
					from := sites[q.Client%len(sites)]
					_, d, err := m.QueryAttr(from, "hot", provenance.String(fmt.Sprintf("h%d", q.Key)))
					if err != nil {
						return out{}, fmt.Errorf("%s %gx query: %w", ent.label, mult, err)
					}
					qH.Observe(ms(d))
				}
			}
			if err := m.Tick(); err != nil {
				return out{}, err
			}
		}
		o.backlog = len(queue)
		if adm != nil {
			o.backlog = adm.Stats().QueueItems
		}

		// Recall over every OFFERED publish, from four spread queriers:
		// shed and still-queued work was never indexed, so overload shows
		// up here as well as in the latency tail.
		groundSet := make(map[provenance.ID]bool, len(ground))
		for _, id := range ground {
			groundSet[id] = true
		}
		queriers := []netsim.SiteID{
			sites[0], sites[len(sites)/3], sites[2*len(sites)/3], sites[len(sites)-1],
		}
		recall := 0.0
		for _, q := range queriers {
			got, _, err := m.QueryAttr(q, provenance.KeyDomain, provenance.String("overload"))
			if err != nil {
				return out{}, fmt.Errorf("%s %gx recall probe: %w", ent.label, mult, err)
			}
			hit := 0
			seen := make(map[provenance.ID]bool, len(got))
			for _, id := range got {
				if groundSet[id] && !seen[id] {
					seen[id] = true
					hit++
				}
			}
			recall += float64(hit) / float64(len(ground))
		}
		o.recall = recall / float64(len(queriers))
		o.p50 = pubH.Quantile(0.50)
		o.p99 = pubH.Quantile(0.99)
		o.p999 = pubH.Quantile(0.999)
		o.qp99 = qH.Quantile(0.99)
		o.wan = net.Stats().WANBytes
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		o, ent := outs[i], entrants[c.ei]
		multLabel := fmt.Sprintf("%gx", mults[c.gi])
		shed := any("-")
		if ent.adm != nil {
			shed = fmt.Sprintf("%d+%d", o.shedRate, o.shedQueue)
		}
		table.AddRow(ent.label, multLabel, o.offered, o.served, shed, o.backlog,
			fmt.Sprintf("%.3f", o.recall),
			fmt.Sprintf("%.2f", o.p50), fmt.Sprintf("%.2f", o.p99), fmt.Sprintf("%.2f", o.p999),
			fmt.Sprintf("%.2f", o.qp99), o.wan)
		tag := fmt.Sprintf("%s_m%d", ent.label, int(mults[c.gi]))
		findings["offered_"+tag] = float64(o.offered)
		findings["served_"+tag] = float64(o.served)
		findings["backlog_"+tag] = float64(o.backlog)
		findings["recall_"+tag] = o.recall
		findings["p50_"+tag] = o.p50
		findings["p99_"+tag] = o.p99
		findings["p999_"+tag] = o.p999
		findings["qp99_"+tag] = o.qp99
		findings["wan_"+tag] = float64(o.wan)
		if ent.adm != nil {
			findings["shedrate_"+tag] = float64(o.shedRate)
			findings["shedqueue_"+tag] = float64(o.shedQueue)
		}
	}
	return &Result{
		ID:       "E18",
		Title:    "Overload: open-loop load at 1x-100x nominal — graceful shedding vs collapse",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"every model in a multiplier column faces the SAME seeded open-loop schedule (bursty shape, Zipf-skewed clients and hot keys); capacity is one round's budget of the model's own simulated publish latency, so the collapse point is architectural, not tuned",
			"plain rows queue unserved arrivals forever: client-observed latency (wait + service) grows with the backlog and the backlog column is work never indexed by measurement time — the recall falloff",
			"*-adm rows run arch.Admitter admission (ratelimit: per-client token buckets + a queue bounded at " + fmt.Sprint(overloadQueueCap) + " rounds of backlog): overload work is refused cheaply (shed = rate+queue), so tail latency stays bounded at the price of explicit refusals",
			"latency percentiles cover completed publishes only (coordinated omission: the backlog's unserved work would only make the plain rows look worse); q-p99 is the hot-key query tail, which stays flat for local-index models while ingest melts",
		},
	}, nil
}
