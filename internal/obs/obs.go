// Package obs is the live observability layer of the reproduction: it
// adapts the simulation's existing accounting — netsim's sharded stats,
// arch.GossipMeter, arch.OpsSampler, arch.Admitter admission counters,
// and the schedule runner's publish latencies — into the labeled
// metrics registry,
// emits the bounded JSONL round trace, and evaluates the time-windowed
// soak gate ("recall never below the threshold for more than K
// consecutive rounds") that the passd daemon and the RecallSoak
// conformance law share. Everything here samples once per round off the
// hot path; nothing adds per-send work.
package obs

import (
	"math"

	"pass/internal/arch"
	"pass/internal/arch/schedule"
	"pass/internal/metrics"
	"pass/internal/netsim"
	"pass/internal/ratelimit"
	"pass/internal/trace"
)

// maxSiteSeries bounds per-site label cardinality: above this many sites
// the collector skips per-site gauges (the aggregate series remain).
const maxSiteSeries = 128

// Collector implements schedule.Observer, translating the runner's
// telemetry into labeled registry series and trace lines. One Collector
// observes one replay (one model instance on one network); counters in
// the shared registry accumulate across successive replays because each
// collector tracks its own per-replay offsets.
type Collector struct {
	Reg   *metrics.Registry
	Trace *trace.Log // may be nil
	Model string     // the {model=...} label value
	Iter  int        // soak iteration tag for trace lines
	Win   *Windowed  // may be nil; fed every round's recall

	net   *netsim.Network
	sites []netsim.SiteID
	m     arch.Model

	// Per-replay offsets so shared counters see only deltas.
	prevBytes, prevMsgs, prevDropped, prevWAN int64
	prevOffered, prevAcked, prevShed          int
	prevGossip                                arch.GossipStats
	prevAdm                                   ratelimit.Stats
}

// NewCollector returns a collector for one replay, labeled modelLabel in
// reg. tr may be nil; set Iter/Win before the replay starts. The
// collector learns its network, site slice, and model instance through
// WrapBuild when the runner constructs them.
func NewCollector(reg *metrics.Registry, tr *trace.Log, modelLabel string) *Collector {
	return &Collector{Reg: reg, Trace: tr, Model: modelLabel}
}

// WrapBuild wraps a model constructor so the collector binds to the
// runner's real network, site slice, and model instance as they are
// built. The runner's scratch capability probe binds first and is
// immediately overwritten by the real build — the last bind wins.
func (c *Collector) WrapBuild(build arch.Builder) arch.Builder {
	return func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		m := build(net, sites)
		c.net, c.sites, c.m = net, sites, m
		return m
	}
}

// OnEvent records an applied fault event: a counter per (model, op) and a
// trace line.
func (c *Collector) OnEvent(round int, e schedule.Event) {
	c.Reg.Counter("pass_fault_events_total",
		metrics.L("model", c.Model), metrics.L("op", e.Op.String())).Inc()
	if c.Trace != nil {
		c.Trace.Append(trace.Event{
			Round: round, Kind: "fault", Model: c.Model, Iter: c.Iter,
			Op: e.Op.String(), Site: e.Site,
		})
	}
}

// OnRound samples the round into the registry: network totals (deltas
// onto shared counters), liveness and recall gauges, a recall-probe
// histogram, gossip-meter and OpsSampler readings, and per-site traffic
// gauges when cardinality allows. It also feeds the windowed gate and
// appends the round trace line.
func (c *Collector) OnRound(st schedule.RoundStats) {
	mL := metrics.L("model", c.Model)
	reg := c.Reg

	reg.Counter("pass_rounds_total", mL).Inc()
	reg.Counter("pass_pubs_offered_total", mL).Add(int64(st.Offered - c.prevOffered))
	reg.Counter("pass_pubs_acked_total", mL).Add(int64(st.Acked - c.prevAcked))
	c.prevOffered, c.prevAcked = st.Offered, st.Acked

	ns := c.net.Stats()
	reg.Counter("pass_net_bytes_total", mL).Add(ns.Bytes - c.prevBytes)
	reg.Counter("pass_net_msgs_total", mL).Add(ns.Messages - c.prevMsgs)
	reg.Counter("pass_net_wan_bytes_total", mL).Add(ns.WANBytes - c.prevWAN)
	reg.Counter("pass_net_dropped_msgs_total", mL).Add(ns.DroppedMsgs - c.prevDropped)
	reg.Histogram("pass_round_bytes", mL).Observe(float64(ns.Bytes - c.prevBytes))
	c.prevBytes, c.prevMsgs, c.prevWAN, c.prevDropped = ns.Bytes, ns.Messages, ns.WANBytes, ns.DroppedMsgs

	reg.Gauge("pass_sites_up", mL).Set(int64(st.Live))
	reg.FGauge("pass_recall", mL).Set(st.Recall)
	reg.Histogram("pass_recall_probe", mL).Observe(st.Recall)

	for _, d := range st.PubLatencies {
		reg.Histogram("pass_latency_publish_ms", mL).Observe(float64(d.Microseconds()) / 1000)
	}
	reg.Counter("pass_pubs_shed_total", mL).Add(int64(st.Shed - c.prevShed))
	c.prevShed = st.Shed

	if ad, ok := c.m.(arch.Admitter); ok {
		if adm := ad.Admission(); adm != nil {
			as := adm.Stats()
			reg.Counter("pass_admission_offered_total", mL).Add(as.Offered - c.prevAdm.Offered)
			reg.Counter("pass_admission_admitted_total", mL).Add(as.Admitted - c.prevAdm.Admitted)
			reg.Counter("pass_admission_shed_rate_total", mL).Add(as.ShedRate - c.prevAdm.ShedRate)
			reg.Counter("pass_admission_shed_queue_total", mL).Add(as.ShedQueue - c.prevAdm.ShedQueue)
			reg.Counter("pass_admission_served_total", mL).Add(as.Served - c.prevAdm.Served)
			reg.Gauge("pass_admission_queue_items", mL).Set(int64(as.QueueItems))
			reg.Gauge("pass_admission_queue_delay_ms", mL).Set(as.QueueDelay.Milliseconds())
			c.prevAdm = as
		}
	}
	if gm, ok := c.m.(arch.GossipMeter); ok {
		gs := gm.GossipStats()
		reg.Counter("pass_gossip_bytes_total", mL).Add(gs.Bytes - c.prevGossip.Bytes)
		reg.Counter("pass_gossip_dup_suppressed_total", mL).Add(gs.DupSuppressed - c.prevGossip.DupSuppressed)
		reg.Counter("pass_gossip_pull_rounds_total", mL).Add(gs.PullRounds - c.prevGossip.PullRounds)
		c.prevGossip = gs
	}
	if os, ok := c.m.(arch.OpsSampler); ok {
		os.SampleOps(func(metric string, v int64) {
			reg.Gauge("pass_"+metric, mL).Set(v)
		})
	}
	if len(c.sites) <= maxSiteSeries {
		for _, id := range c.sites {
			ss := c.net.SiteStats(id)
			sL := metrics.L("site", siteLabel(int(id)))
			reg.Gauge("pass_site_bytes_out", mL, sL).Set(ss.BytesOut)
			reg.Gauge("pass_site_msgs_out", mL, sL).Set(ss.MsgsOut)
		}
	}

	if c.Win != nil {
		c.Win.Add(st.Recall)
		reg.Gauge("pass_soak_worst_streak", mL).Set(int64(c.Win.Worst()))
		if c.Win.Breaches() > 0 {
			reg.Gauge("pass_soak_gate_ok", mL).Set(0)
		} else {
			reg.Gauge("pass_soak_gate_ok", mL).Set(1)
		}
	}
	if c.Trace != nil {
		c.Trace.Append(trace.Event{
			Round: st.Round, Kind: "round", Model: c.Model, Iter: c.Iter,
			Offered: st.Offered, Acked: st.Acked, Live: st.Live,
			Bytes: st.Bytes, Msgs: st.Msgs, Recall: st.Recall,
		})
	}
}

// siteLabel renders a site ID without pulling in strconv-per-call noise
// at higher layers.
func siteLabel(id int) string {
	if id == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for id > 0 {
		i--
		buf[i] = byte('0' + id%10)
		id /= 10
	}
	return string(buf[i:])
}

// Windowed is the time-windowed soak gate: recall may dip below
// Threshold (a crash wave does that by construction), but never for more
// than MaxStreak CONSECUTIVE rounds — the first duration-sensitive
// correctness bar in the suite, as opposed to the endpoint recall checks.
// The zero value is not usable; set Threshold and MaxStreak.
type Windowed struct {
	Threshold float64
	MaxStreak int

	cur, worst int
	breaches   int
	rounds     int
	minRecall  float64
	last       float64
}

// NewWindowed returns a gate with the given threshold and streak budget.
func NewWindowed(threshold float64, maxStreak int) *Windowed {
	return &Windowed{Threshold: threshold, MaxStreak: maxStreak, minRecall: math.Inf(1)}
}

// Add feeds one round's recall reading.
func (w *Windowed) Add(recall float64) {
	w.rounds++
	w.last = recall
	if recall < w.minRecall {
		w.minRecall = recall
	}
	if recall < w.Threshold {
		w.cur++
		if w.cur > w.worst {
			w.worst = w.cur
		}
		if w.cur == w.MaxStreak+1 {
			// Count each over-budget streak once, at the round it exceeds.
			w.breaches++
		}
	} else {
		w.cur = 0
	}
}

// EndIteration closes a replay boundary: a streak cannot span two
// independent soak iterations.
func (w *Windowed) EndIteration() { w.cur = 0 }

// Worst returns the longest below-threshold streak seen.
func (w *Windowed) Worst() int { return w.worst }

// Breaches returns how many streaks exceeded the budget.
func (w *Windowed) Breaches() int { return w.breaches }

// Rounds returns how many readings were fed.
func (w *Windowed) Rounds() int { return w.rounds }

// MinRecall returns the lowest reading seen (+Inf before any reading).
func (w *Windowed) MinRecall() float64 { return w.minRecall }

// LastRecall returns the most recent reading.
func (w *Windowed) LastRecall() float64 { return w.last }

// OK reports whether the gate has held so far.
func (w *Windowed) OK() bool { return w.breaches == 0 }
