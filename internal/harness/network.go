package harness

import (
	"fmt"
	"time"

	"pass/internal/arch"
	"pass/internal/arch/central"
	"pass/internal/arch/dht"
	"pass/internal/arch/hier"
	"pass/internal/arch/passnet"
	"pass/internal/arch/roster"
	"pass/internal/arch/softstate"
	"pass/internal/geo"
	"pass/internal/metrics"
	"pass/internal/netsim"
	"pass/internal/provenance"
	"pass/internal/workload"
)

// Experiments over the architecture models: E5–E9, E11, E13. The sweeps
// run one cell per (model, size, ...) grid point through runCells: each
// cell builds its own network, model, clock, and workload from the cell
// descriptor alone, so the cells parallelize without changing a byte of
// the output.

// kv is one named finding produced by a sweep cell; cells return slices
// of these so the findings map can be assembled in deterministic order
// after the parallel section.
type kv struct {
	k string
	v float64
}

// newGrid builds an n-site network on a grid, one locality zone per site.
func newGrid(n int) (*netsim.Network, []netsim.SiteID) {
	net := netsim.New(netsim.Config{})
	m := geo.GridLayout(n, 500, 50)
	var sites []netsim.SiteID
	for _, z := range m.Zones() {
		sites = append(sites, net.AddSite("site-"+z.Name, z.Center, z.Name))
	}
	return net, sites
}

// newWorld builds two sites per world city: index 2k is the producer and
// 2k+1 the consumer of city k.
func newWorld() (*netsim.Network, []netsim.SiteID) {
	net := netsim.New(netsim.Config{})
	var sites []netsim.SiteID
	for _, z := range geo.WorldCities().Zones() {
		sites = append(sites,
			net.AddSite(z.Name+"-producer", z.Center, z.Name),
			net.AddSite(z.Name+"-consumer", geo.Point{X: z.Center.X + 5, Y: z.Center.Y}, z.Name))
	}
	return net, sites
}

// genPubs turns generated tuple sets into publishable provenance records,
// placing each at the site chosen by place.
func genPubs(sets []workload.GenSet, clock func() int64, place func(i int, g workload.GenSet) netsim.SiteID) ([]arch.Pub, error) {
	pubs := make([]arch.Pub, 0, len(sets))
	for i, g := range sets {
		rec, id, err := provenance.NewRaw(g.Set.Digest(), int64(g.Set.EncodedSize())).
			Attrs(g.Attrs...).
			CreatedAt(clock()).
			Build()
		if err != nil {
			return nil, err
		}
		pubs = append(pubs, arch.Pub{ID: id, Rec: rec, Origin: place(i, g)})
	}
	return pubs, nil
}

// chainPubs builds a derivation chain whose records rotate across the
// given origin sites, root first.
func chainPubs(length int, origins []netsim.SiteID, clock func() int64) ([]arch.Pub, error) {
	var pubs []arch.Pub
	var prev provenance.ID
	for i := 0; i < length; i++ {
		var digest [32]byte
		digest[0] = byte(i)
		digest[1] = byte(i >> 8)
		digest[2] = 0xC4
		var b *provenance.Builder
		if i == 0 {
			b = provenance.NewRaw(digest, 64)
		} else {
			b = provenance.NewDerived(digest, 64, "step", fmt.Sprint(i), prev)
		}
		rec, id, err := b.CreatedAt(clock()).Build()
		if err != nil {
			return nil, err
		}
		pubs = append(pubs, arch.Pub{ID: id, Rec: rec, Origin: origins[i%len(origins)]})
		prev = id
	}
	return pubs, nil
}

// E5UpdateScalability — §IV: publish cost per model as sites grow.
func (r *Runner) E5UpdateScalability() (*Result, error) {
	table := metrics.NewTable("E5: publish scalability",
		"model", "sites", "publishes", "wan-bytes", "msgs", "mean-pub-ms")
	findings := map[string]float64{}

	perSite := r.scale.n(40)
	type cell struct{ n, mi int }
	var cells []cell
	for _, n := range []int{4, 8, 16} {
		for mi := range comparison {
			cells = append(cells, cell{n, mi})
		}
	}
	type out struct {
		name     string
		pubs     int
		wanBytes int64
		msgs     int64
		meanMs   float64
	}
	outs, err := runCells(r, cells, func(c cell) (out, error) {
		clock := monotonicClock()
		sets := workload.Generate(workload.Config{
			Domain:  workload.DomainTraffic,
			Zones:   zoneNames(c.n),
			Windows: perSite, SensorsPerZone: 2, ReadingsPerSensor: 2,
			WindowDur: time.Hour, Seed: uint64(500 + c.n),
		})
		net, sites := newGrid(c.n)
		m := entrant(comparison[c.mi])(net, sites)
		pubs, err := genPubs(sets, clock, func(i int, g workload.GenSet) netsim.SiteID {
			return sites[zoneIndex(g.Zone)%len(sites)]
		})
		if err != nil {
			return out{}, err
		}
		net.ResetStats()
		var totalLat time.Duration
		for _, p := range pubs {
			d, err := m.Publish(p)
			if err != nil {
				return out{}, fmt.Errorf("%s: %w", m.Name(), err)
			}
			totalLat += d
		}
		if err := m.Tick(); err != nil {
			return out{}, err
		}
		st := net.Stats()
		return out{
			name:     m.Name(),
			pubs:     len(pubs),
			wanBytes: st.WANBytes,
			msgs:     st.Messages,
			meanMs:   float64(totalLat.Microseconds()) / float64(len(pubs)) / 1000,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		o := outs[i]
		table.AddRow(o.name, c.n, o.pubs, o.wanBytes, o.msgs, o.meanMs)
		findings[fmt.Sprintf("wan_%s_%d", o.name, c.n)] = float64(o.wanBytes)
		findings[fmt.Sprintf("publat_%s_%d", o.name, c.n)] = o.meanMs
	}
	return &Result{
		ID:       "E5",
		Title:    "Publish scalability across architectures",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"shape check: central/distdb/dht WAN bytes grow with total rate; feddb/softstate/passnet keep full metadata local",
		},
	}, nil
}

func zoneNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("zone-%d", i)
	}
	return out
}

func zoneIndex(zone string) int {
	n := 0
	for i := len(zone) - 1; i >= 0; i-- {
		c := zone[i]
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// comparison is the Section IV roster in its standard configuration
// (package roster): the seven architectures E5 and E14 compare.
var comparison = []string{"central", "distdb", "feddb", "softstate", "hier", "dht", "passnet"}

// entrant returns the named roster builder. The experiments name only
// roster entrants, so a miss is a typo in this package.
func entrant(name string) arch.Builder {
	b, ok := roster.Lookup(name)
	if !ok {
		panic("harness: no roster entrant " + name)
	}
	return b
}

// E6Locality — §III-D and the Pier observation: a Boston consumer querying
// Boston data should not pay world-scale round trips.
func (r *Runner) E6Locality() (*Result, error) {
	table := metrics.NewTable("E6: locality (boston consumer, boston data)",
		"model", "mean-query-ms", "wan-bytes(query)", "wan-msgs(query)")
	findings := map[string]float64{}

	k := r.scale.n(60)
	queries := r.scale.n(30)
	// The world-city roster: central's warehouse and softstate's index
	// sit in tokyo, far from boston, and passnet gossips digests at
	// publish time so results are fresh.
	cells := []string{"central", "distdb", "feddb", "softstate", "hier", "dht", "passnet-immediate"}
	type out struct {
		name    string
		meanMs  float64
		wan     int64
		wanMsgs int64
	}
	outs, err := runCells(r, cells, func(name string) (out, error) {
		net, sites := newWorld()
		var m arch.Model
		switch name {
		case "central":
			m = central.New(net, sites[8]) // tokyo-producer hosts the warehouse
		case "softstate":
			m = softstate.New(net, sites, sites[8:9], 1)
		default:
			m = entrant(name)(net, sites)
		}
		producer, consumer := sites[0], sites[1] // boston pair (see newWorld)
		clock := monotonicClock()
		sets := workload.Generate(workload.Config{
			Domain:  workload.DomainTraffic,
			Zones:   []string{"boston"},
			Windows: k, SensorsPerZone: 2, ReadingsPerSensor: 2,
			WindowDur: time.Hour, Seed: 61,
		})
		pubs, err := genPubs(sets, clock, func(int, workload.GenSet) netsim.SiteID { return producer })
		if err != nil {
			return out{}, err
		}
		for _, p := range pubs {
			if _, err := m.Publish(p); err != nil {
				return out{}, fmt.Errorf("%s: %w", m.Name(), err)
			}
		}
		if err := m.Tick(); err != nil {
			return out{}, err
		}
		net.ResetStats()
		var totalLat time.Duration
		for i := 0; i < queries; i++ {
			got, d, err := m.QueryAttr(consumer, provenance.KeyZone, provenance.String("boston"))
			if err != nil {
				return out{}, fmt.Errorf("%s: %w", m.Name(), err)
			}
			if len(got) != len(pubs) {
				return out{}, fmt.Errorf("%s: query returned %d/%d", m.Name(), len(got), len(pubs))
			}
			totalLat += d
		}
		st := net.Stats()
		return out{
			name:    m.Name(),
			meanMs:  float64(totalLat.Microseconds()) / float64(queries) / 1000,
			wan:     st.WANBytes,
			wanMsgs: st.WANMsgs,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		table.AddRow(o.name, o.meanMs, o.wan, o.wanMsgs)
		findings["qms_"+o.name] = o.meanMs
		findings["qwan_"+o.name] = float64(o.wan)
	}
	return &Result{
		ID:       "E6",
		Title:    "Locality: Boston data belongs in Boston",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"shape check: passnet/feddb/hier answer in-zone; central always crosses to the warehouse; dht scatters to random homes",
		},
	}, nil
}

// E7SoftStateStaleness — §IV-B: recall vs refresh period.
func (r *Runner) E7SoftStateStaleness() (*Result, error) {
	table := metrics.NewTable("E7: soft-state staleness",
		"model", "refresh-every", "publishes", "mean-recall", "min-recall")
	findings := map[string]float64{}

	k := r.scale.n(64)
	genSets := func() []workload.GenSet {
		return workload.Generate(workload.Config{
			Domain:  workload.DomainWeather,
			Zones:   []string{"zone-0"},
			Windows: k, SensorsPerZone: 1, ReadingsPerSensor: 2,
			WindowDur: time.Minute, Seed: 71,
		})
	}

	// Cell 0..4 sweep the softstate refresh period; the last cell is the
	// passnet-immediate contrast, which never goes stale.
	periods := []int{1, 2, 4, 8, 16}
	cells := make([]int, len(periods)+1)
	for i := range cells {
		cells[i] = i
	}
	type out struct {
		model     string
		period    string
		pubs      int
		mean, min float64
	}
	outs, err := runCells(r, cells, func(ci int) (out, error) {
		net, sites := newGrid(4)
		var m arch.Model
		label, periodLabel := "softstate", ""
		if ci < len(periods) {
			m = softstate.New(net, sites, sites[:1], periods[ci])
			periodLabel = fmt.Sprint(periods[ci])
		} else {
			m = passnet.New(net, sites, passnet.Options{ImmediateDigest: true})
			label, periodLabel = "passnet-immediate", "-"
		}
		pubs, err := genPubs(genSets(), monotonicClock(), func(int, workload.GenSet) netsim.SiteID { return sites[0] })
		if err != nil {
			return out{}, err
		}
		sumRecall, minRecall := 0.0, 1.0
		for i, p := range pubs {
			if _, err := m.Publish(p); err != nil {
				return out{}, err
			}
			if ci < len(periods) {
				if err := m.Tick(); err != nil {
					return out{}, err
				}
			}
			got, _, err := m.QueryAttr(sites[2], provenance.KeyDomain, provenance.String("weather"))
			if err != nil {
				return out{}, err
			}
			recall := float64(len(got)) / float64(i+1)
			sumRecall += recall
			if recall < minRecall {
				minRecall = recall
			}
		}
		return out{model: label, period: periodLabel, pubs: len(pubs),
			mean: sumRecall / float64(len(pubs)), min: minRecall}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		table.AddRow(o.model, o.period, o.pubs, o.mean, o.min)
		if i < len(periods) {
			findings[fmt.Sprintf("recall_p%d", periods[i])] = o.mean
		} else {
			findings["recall_passnet"] = o.mean
		}
	}
	return &Result{
		ID:       "E7",
		Title:    "Soft-state staleness vs refresh period",
		Table:    table,
		Findings: findings,
		Notes:    []string{"shape check: recall decays monotonically as the refresh period grows"},
	}, nil
}

// E8HierarchyOrdering — §IV-B: primary- vs secondary-attribute query cost
// under a significance ordering.
func (r *Runner) E8HierarchyOrdering() (*Result, error) {
	n := r.scale.n(16)
	if n < 4 {
		n = 4
	}
	net, sites := newGrid(n)
	m, err := hier.New(net, sites, []string{provenance.KeyZone, provenance.KeySensorClass})
	if err != nil {
		return nil, err
	}
	clock := monotonicClock()
	sets := workload.Generate(workload.Config{
		Domain:  workload.DomainTraffic,
		Zones:   zoneNames(n),
		Windows: r.scale.n(20), SensorsPerZone: 3, ReadingsPerSensor: 2,
		WindowDur: time.Hour, Seed: 81,
	})
	pubs, err := genPubs(sets, clock, func(i int, g workload.GenSet) netsim.SiteID {
		return sites[zoneIndex(g.Zone)%len(sites)]
	})
	if err != nil {
		return nil, err
	}
	for _, p := range pubs {
		if _, err := m.Publish(p); err != nil {
			return nil, err
		}
	}

	table := metrics.NewTable(fmt.Sprintf("E8: significance ordering (%d servers)", n),
		"query-attribute", "servers-contacted", "latency-ms", "wan-bytes", "results")
	findings := map[string]float64{}

	runQuery := func(label, metricKey, key string, val provenance.Value) error {
		net.ResetStats()
		got, d, err := m.QueryAttr(sites[0], key, val)
		if err != nil {
			return err
		}
		st := net.Stats()
		table.AddRow(label, m.LastFanout(), float64(d.Microseconds())/1000, st.Bytes, len(got))
		findings["fanout_"+metricKey] = float64(m.LastFanout())
		return nil
	}
	if err := runQuery("primary (zone)", "primary", provenance.KeyZone, provenance.String("zone-1")); err != nil {
		return nil, err
	}
	if err := runQuery("secondary (sensor-class)", "secondary", provenance.KeySensorClass, provenance.String("camera")); err != nil {
		return nil, err
	}
	return &Result{
		ID:       "E8",
		Title:    "Hierarchical significance-ordering penalty",
		Table:    table,
		Findings: findings,
		Notes:    []string{"shape check: secondary-attribute queries contact every server; primary contacts exactly one"},
	}, nil
}

// E9DHTUpdates — §IV-C: update load and recursive-query cost on a DHT.
func (r *Runner) E9DHTUpdates() (*Result, error) {
	table := metrics.NewTable("E9: DHT update load",
		"nodes", "updaters", "attrs/record", "msgs/publish", "avg-hops", "republish-bytes/tick", "ancestry-msgs(depth 8)")
	findings := map[string]float64{}

	type cell struct{ n, attrs int }
	var cells []cell
	for _, n := range []int{8, 32} {
		for _, attrs := range []int{2, 6} {
			cells = append(cells, cell{n, attrs})
		}
	}
	type out struct {
		updaters  int
		pubMsgs   float64
		avgHops   float64
		tickBytes int64
		ancMsgs   int64
	}
	outs, err := runCells(r, cells, func(c cell) (out, error) {
		net, sites := newGrid(c.n)
		m := dht.New(net, sites)
		clock := monotonicClock()
		updaters := r.scale.n(200)

		var pubs []arch.Pub
		for i := 0; i < updaters; i++ {
			b := provenance.NewRaw(seedDigest(i), 64)
			for a := 0; a < c.attrs; a++ {
				b = b.Attr(fmt.Sprintf("attr-%d", a), provenance.String(fmt.Sprintf("v%d", i%7)))
			}
			rec, id, err := b.CreatedAt(clock()).Build()
			if err != nil {
				return out{}, err
			}
			pubs = append(pubs, arch.Pub{ID: id, Rec: rec, Origin: sites[i%len(sites)]})
		}
		net.ResetStats()
		for _, p := range pubs {
			if _, err := m.Publish(p); err != nil {
				return out{}, err
			}
		}
		pubMsgs := float64(net.Stats().Messages) / float64(len(pubs))

		net.ResetStats()
		if err := m.Tick(); err != nil { // republish round
			return out{}, err
		}
		tickBytes := net.Stats().Bytes

		// Recursive query cost on a depth-8 chain.
		chain, err := chainPubs(8, sites, clock)
		if err != nil {
			return out{}, err
		}
		for _, p := range chain {
			if _, err := m.Publish(p); err != nil {
				return out{}, err
			}
		}
		net.ResetStats()
		if _, _, err := m.QueryAncestors(sites[0], chain[len(chain)-1].ID); err != nil {
			return out{}, err
		}
		return out{
			updaters:  updaters,
			pubMsgs:   pubMsgs,
			avgHops:   m.AvgHops(),
			tickBytes: tickBytes,
			ancMsgs:   net.Stats().Messages,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		o := outs[i]
		table.AddRow(c.n, o.updaters, c.attrs, o.pubMsgs, o.avgHops, o.tickBytes, o.ancMsgs)
		findings[fmt.Sprintf("pubmsgs_n%d_a%d", c.n, c.attrs)] = o.pubMsgs
		findings[fmt.Sprintf("hops_n%d_a%d", c.n, c.attrs)] = o.avgHops
	}
	return &Result{
		ID:       "E9",
		Title:    "DHT update load and recursive-query cost",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"shape check: messages/publish grows with queriable attributes; hops grow with ring size; every republish tick repeats the full load (the 'tens of thousands of updaters' ceiling)",
		},
	}, nil
}

func seedDigest(i int) [32]byte {
	var d [32]byte
	d[0] = byte(i)
	d[1] = byte(i >> 8)
	d[2] = byte(i >> 16)
	d[3] = 0xE9
	return d
}

// E11DistributedClosure — §V: distributed transitive closure as lineage
// spans more sites.
func (r *Runner) E11DistributedClosure() (*Result, error) {
	table := metrics.NewTable("E11: distributed transitive closure (chain depth 32)",
		"model", "sites-spanned", "latency-ms", "messages")
	findings := map[string]float64{}

	depth := r.scale.n(32)
	if depth < 8 {
		depth = 8
	}
	type cell struct {
		span int
		name string
	}
	var cells []cell
	for _, span := range []int{1, 4, 8} {
		for _, name := range []string{"central", "softstate", "dht", "feddb", "passnet-immediate"} {
			cells = append(cells, cell{span, name})
		}
	}
	type out struct {
		name string
		ms   float64
		msgs int64
	}
	outs, err := runCells(r, cells, func(c cell) (out, error) {
		net, sites := newGrid(16)
		m := entrant(c.name)(net, sites)
		clock := monotonicClock()
		origins := sites[:c.span]
		pubs, err := chainPubs(depth, origins, clock)
		if err != nil {
			return out{}, err
		}
		for _, p := range pubs {
			if _, err := m.Publish(p); err != nil {
				return out{}, fmt.Errorf("%s: %w", m.Name(), err)
			}
		}
		if err := m.Tick(); err != nil {
			return out{}, err
		}
		net.ResetStats()
		anc, d, err := m.QueryAncestors(sites[len(sites)-1], pubs[len(pubs)-1].ID)
		if err != nil {
			return out{}, fmt.Errorf("%s span %d: %w", m.Name(), c.span, err)
		}
		if len(anc) != depth-1 {
			return out{}, fmt.Errorf("%s span %d: closure %d, want %d", m.Name(), c.span, len(anc), depth-1)
		}
		return out{
			name: m.Name(),
			ms:   float64(d.Microseconds()) / 1000,
			msgs: net.Stats().Messages,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		o := outs[i]
		table.AddRow(o.name, c.span, o.ms, o.msgs)
		findings[fmt.Sprintf("msgs_%s_span%d", o.name, c.span)] = float64(o.msgs)
	}
	return &Result{
		ID:       "E11",
		Title:    "Distributed transitive closure across merged PASS sites",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"shape check: passnet messages track sites-spanned (server-side traversal); dht/softstate pay per-record lookups regardless of span; central is one round trip but paid for it at ingest (E5)",
		},
	}, nil
}

// E13ResourceCrossover — §IV Resource Consumption: "If distributed,
// updates may use a lot of network bandwidth; if centralized, query
// traffic may instead." Sweep the query:update ratio and find where each
// side wins on WAN bytes.
func (r *Runner) E13ResourceCrossover() (*Result, error) {
	table := metrics.NewTable("E13: WAN bytes vs query:update ratio (16 sites, 80% zone-local queries)",
		"q:u ratio", "central-bytes", "passnet-imm-bytes", "passnet-batch-bytes", "winner")
	findings := map[string]float64{}

	totalOps := r.scale.n(1500)
	ratios := []float64{0.01, 0.1, 1, 10, 100}

	// variant 0 = central, 1 = passnet-immediate, 2 = passnet-batched.
	variants := []struct {
		name    string
		batched bool
	}{{"central", false}, {"passnet-immediate", false}, {"passnet", true}}
	type cell struct {
		ratio float64
		vi    int
	}
	var cells []cell
	for _, ratio := range ratios {
		for vi := range variants {
			cells = append(cells, cell{ratio, vi})
		}
	}
	outs, err := runCells(r, cells, func(c cell) (int64, error) {
		// ops split: queries = total * ratio/(1+ratio).
		queries := int(float64(totalOps) * c.ratio / (1 + c.ratio))
		updates := totalOps - queries
		if updates < 1 {
			updates = 1
		}
		net, sites := newGrid(16)
		m := entrant(variants[c.vi].name)(net, sites)
		batched := variants[c.vi].batched
		clock := monotonicClock()
		rng := workload.NewRand(uint64(1000 * (1 + c.ratio)))
		sets := workload.Generate(workload.Config{
			Domain:  workload.DomainTraffic,
			Zones:   zoneNames(16),
			Windows: (updates+15)/16 + 1, SensorsPerZone: 2, ReadingsPerSensor: 2,
			WindowDur: time.Hour, Seed: 131,
		})
		pubs, err := genPubs(sets, clock, func(i int, g workload.GenSet) netsim.SiteID {
			return sites[zoneIndex(g.Zone)%len(sites)]
		})
		if err != nil {
			return 0, err
		}
		if len(pubs) > updates {
			pubs = pubs[:updates]
		}
		net.ResetStats()
		// WAN byte totals are order-independent, so run the update
		// phase then the query phase (batched mode ticks every 16
		// publishes, modelling periodic gossip under sustained load).
		for pi, p := range pubs {
			if _, err := m.Publish(p); err != nil {
				return 0, err
			}
			if batched && (pi+1)%16 == 0 {
				if err := m.Tick(); err != nil {
					return 0, err
				}
			}
		}
		if err := m.Tick(); err != nil {
			return 0, err
		}
		for q := 0; q < queries; q++ {
			// 80% of queries target the querier's own zone (locality).
			qSite := sites[rng.Intn(len(sites))]
			zone := fmt.Sprintf("zone-%d", int(qSite))
			if rng.Float64() >= 0.8 {
				zone = fmt.Sprintf("zone-%d", rng.Intn(16))
			}
			if _, _, err := m.QueryAttr(qSite, provenance.KeyZone, provenance.String(zone)); err != nil {
				return 0, err
			}
		}
		return net.Stats().WANBytes, nil
	})
	if err != nil {
		return nil, err
	}
	for ri, ratio := range ratios {
		centralBytes := outs[ri*len(variants)]
		pnImmBytes := outs[ri*len(variants)+1]
		pnBatchBytes := outs[ri*len(variants)+2]
		winner := "central"
		if pnBatchBytes < centralBytes || pnImmBytes < centralBytes {
			winner = "passnet"
		}
		table.AddRow(fmt.Sprintf("%.2f", ratio), centralBytes, pnImmBytes, pnBatchBytes, winner)
		findings[fmt.Sprintf("central_%.2f", ratio)] = float64(centralBytes)
		findings[fmt.Sprintf("passnet_%.2f", ratio)] = float64(min(pnImmBytes, pnBatchBytes))
	}
	return &Result{
		ID:       "E13",
		Title:    "Resource consumption: central vs distributed crossover",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"the paper's tension verbatim: distributed pays on updates (digest fan-out), central pays on queries (every query crosses the WAN); the winner flips with the ratio",
		},
	}, nil
}
