// Package schedule generates and executes randomized membership
// schedules: seeded interleavings of join / leave / crash / heal /
// partition / loss-burst events that drive any arch.Model through the
// full "sites come and go" lifecycle the paper's Section IV comparison
// assumes.
//
// The scripted churn scenarios (E16, the KeyRehoming and FastRejoin
// laws) pin one mechanism each; this package is the scenario-diversity
// counterpart. Generate derives, from one seed, a deterministic event
// list over a fixed site population — some sites are members from the
// start, some are cold "joiners" admitted mid-run — and Run replays that
// list against a model: publishes flow every round from live members,
// events mutate the network and the membership, maintenance ticks run in
// between, and a final quiescence phase (every fault lifted, stragglers
// joined, unacknowledged publishes re-offered) measures how many rounds
// the model needs to answer in full again.
//
// The oracle a conformance law or experiment applies on top is generic:
//
//   - eventual recall: after quiescence plus convergence rounds, lookups
//     over every acknowledged publish succeed (recall ≥ 0.99 — the same
//     bar the scripted churn laws use);
//   - everything charged: all recovery traffic — join handoffs included —
//     appears in the network's byte accounting;
//   - determinism: the same seed replays to a byte-identical Outcome, so
//     a failing schedule is a reproducible artifact, not an anecdote.
//
// Schedule.String prints the event list in replayable form; a law that
// fails embeds it in the failure message so the exact interleaving can
// be re-run and debugged.
//
// Membership convention: models implementing arch.Joiner admit joiners
// through Join (charged handoff); for every other model a joiner is a
// member that was down from round zero — netsim.Fail at start, Heal at
// its join event — the "not yet joined" convention the conformance
// suite's churn scenario already uses. Departures mirror it: models
// implementing arch.Leaver retire OpLeave targets through Leave (charged
// pre-exit key handoff to the successor); for everyone else the site
// goes dark at the leave event and heals at quiescence, so the oracle's
// recall bar still applies.
package schedule

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pass/internal/arch"
	"pass/internal/arch/scenario"
	"pass/internal/netsim"
	"pass/internal/provenance"
	"pass/internal/xrand"
)

// Op is one membership-schedule event kind.
type Op int

// The event kinds a schedule interleaves.
const (
	// OpCrash fails a member site mid-run.
	OpCrash Op = iota
	// OpHeal recovers a crashed member.
	OpHeal
	// OpJoin admits the next cold joiner (arch.Joiner models pay a key
	// handoff; others heal the never-up site).
	OpJoin
	// OpPartition splits the population in two at Cut.
	OpPartition
	// OpHealPartition reconnects the cells.
	OpHealPartition
	// OpLossBurst sets a global packet-loss rate.
	OpLossBurst
	// OpLossEnd clears it.
	OpLossEnd
	// OpLeave retires a founding member voluntarily (arch.Leaver models
	// hand the member's keys to a successor pre-exit; for everyone else
	// the site simply goes dark until quiescence heals it — the departure
	// analogue of OpJoin's two conventions). A left member never crashes,
	// heals, or publishes again.
	OpLeave
)

// String names the op the way Schedule.String prints it.
func (o Op) String() string {
	switch o {
	case OpCrash:
		return "crash"
	case OpHeal:
		return "heal"
	case OpJoin:
		return "join"
	case OpPartition:
		return "partition"
	case OpHealPartition:
		return "heal-partition"
	case OpLossBurst:
		return "loss-burst"
	case OpLossEnd:
		return "loss-end"
	case OpLeave:
		return "leave"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Event is one schedule entry, applied at the start of its round.
type Event struct {
	// Round the event fires in, 0-based, ascending.
	Round int
	// Op is the event kind.
	Op Op
	// Site indexes the schedule's site slice (crash/heal/join).
	Site int
	// Cut is the partition split point: sites[:Cut] vs sites[Cut:].
	Cut int
	// Rate is the loss-burst drop probability.
	Rate float64
}

// Config sizes a generated schedule.
type Config struct {
	// Sites is the total population, joiners included. Must be a
	// multiple of SitesPerZone (the topology builder creates whole
	// zones); Run validates.
	Sites int
	// SitesPerZone shapes the topology (netsim.RandomTopology).
	SitesPerZone int
	// Joiners is how many sites start cold and join mid-run.
	Joiners int
	// Rounds is how many event/publish/tick rounds the schedule spans.
	Rounds int
	// EventRate is the expected membership/fault events per round.
	EventRate float64
	// PubsPerRound is the publish workload per round.
	PubsPerRound int
	// Reoffer is how many EXTRA times each acknowledged publish is
	// re-offered in its round — an at-least-once ingest pipeline that
	// keeps re-sending what the service already took. Zero (the default)
	// offers once. Re-offers are not counted in Offered and never change
	// recall; they exist to load the dissemination layer with the
	// duplicate traffic real pipelines produce (the E17 gossip-efficiency
	// columns).
	Reoffer int
}

// Schedule is one generated event list, replayable from its seed.
type Schedule struct {
	Seed   uint64
	Cfg    Config
	Events []Event
}

// anchors is how many leading sites the generator never crashes: the
// service anchors (central's warehouse, softstate's index nodes) whose
// loss is total outage, not churn — the same convention E16 uses so
// recall measures data reachability rather than index availability.
const anchors = 2

// Generate derives a deterministic schedule from the seed. Joins are
// spread across the run (every joiner is admitted before the final
// round); crash/heal/leave/partition/loss events are drawn at EventRate
// with bounded concurrency (at most a quarter of the members down at
// once, at most an eighth departed voluntarily, one partition and one
// loss burst at a time, both always closed before the schedule ends).
// Leaves target founding members only — never anchors, joiners, or sites
// currently crashed or already departed — and a departed site is never
// crashed or healed afterwards.
func Generate(seed uint64, cfg Config) *Schedule {
	rng := xrand.New(seed)
	s := &Schedule{Seed: seed, Cfg: cfg}
	members := cfg.Sites - cfg.Joiners

	crashed := map[int]bool{}
	left := map[int]bool{}
	partitioned := false
	lossy := false
	nextJoiner := 0

	// Joiner j is admitted at a fixed stride through the run so every
	// join lands before quiescence and the joins interleave with faults.
	joinRound := func(j int) int {
		return (j + 1) * (cfg.Rounds - 1) / (cfg.Joiners + 1)
	}

	for round := 0; round < cfg.Rounds; round++ {
		for nextJoiner < cfg.Joiners && joinRound(nextJoiner) == round {
			s.Events = append(s.Events, Event{Round: round, Op: OpJoin, Site: members + nextJoiner})
			nextJoiner++
		}
		// Loss bursts and partitions are closed two rounds before the end
		// so the tail of the schedule exercises recovery, not fresh damage.
		closing := round >= cfg.Rounds-2
		n := 0
		for rng.Float64() < cfg.EventRate && n < 3 {
			n++
			switch pick := rng.Intn(7); {
			case pick == 0 && len(crashed) < members/4:
				victim := anchors + rng.Intn(members-anchors)
				if crashed[victim] || left[victim] {
					continue
				}
				crashed[victim] = true
				s.Events = append(s.Events, Event{Round: round, Op: OpCrash, Site: victim})
			case pick == 1 && len(crashed) > 0:
				// Deterministic pick: lowest crashed index.
				victim := -1
				for i := 0; i < members; i++ {
					if crashed[i] {
						victim = i
						break
					}
				}
				delete(crashed, victim)
				s.Events = append(s.Events, Event{Round: round, Op: OpHeal, Site: victim})
			case pick == 6 && len(left) < members/8 && !closing:
				leaver := anchors + rng.Intn(members-anchors)
				if crashed[leaver] || left[leaver] {
					continue
				}
				left[leaver] = true
				s.Events = append(s.Events, Event{Round: round, Op: OpLeave, Site: leaver})
			case pick == 2 && !partitioned && !closing:
				cut := cfg.Sites/4 + rng.Intn(cfg.Sites/2)
				partitioned = true
				s.Events = append(s.Events, Event{Round: round, Op: OpPartition, Cut: cut})
			case pick == 3 && partitioned:
				partitioned = false
				s.Events = append(s.Events, Event{Round: round, Op: OpHealPartition})
			case pick == 4 && !lossy && !closing:
				lossy = true
				rate := 0.05 + 0.2*rng.Float64()
				s.Events = append(s.Events, Event{Round: round, Op: OpLossBurst, Rate: rate})
			case pick == 5 && lossy:
				lossy = false
				s.Events = append(s.Events, Event{Round: round, Op: OpLossEnd})
			}
		}
		if closing {
			if partitioned {
				partitioned = false
				s.Events = append(s.Events, Event{Round: round, Op: OpHealPartition})
			}
			if lossy {
				lossy = false
				s.Events = append(s.Events, Event{Round: round, Op: OpLossEnd})
			}
		}
	}
	return s
}

// SoakOptions shapes GenerateSoak's fault stream. The zero value selects
// the defaults noted per field.
type SoakOptions struct {
	// CrashEvery starts a crash wave every this many rounds (default 6).
	CrashEvery int
	// DownFor is how many rounds each victim stays down before its
	// scheduled heal (default 3). The soak gate's consecutive-round
	// streak budget derives from this bound.
	DownFor int
	// Victims is how many members each wave takes down (default 1).
	Victims int
	// LossEvery opens a packet-loss burst every this many rounds; 0 (the
	// default) disables bursts.
	LossEvery int
	// LossFor is how many rounds a burst lasts (default 2).
	LossFor int
	// LossRate is the burst drop probability (default 0.1, capped at 0.2
	// so retry chains still converge).
	LossRate float64
}

// withDefaults fills zero fields with the documented defaults.
func (o SoakOptions) withDefaults() SoakOptions {
	if o.CrashEvery <= 0 {
		o.CrashEvery = 6
	}
	if o.DownFor <= 0 {
		o.DownFor = 3
	}
	if o.Victims <= 0 {
		o.Victims = 1
	}
	if o.LossFor <= 0 {
		o.LossFor = 2
	}
	if o.LossRate <= 0 {
		o.LossRate = 0.1
	}
	if o.LossRate > 0.2 {
		o.LossRate = 0.2
	}
	return o
}

// GenerateSoak derives a deterministic soak schedule: periodic crash
// waves whose victims ALWAYS heal exactly DownFor rounds later, plus
// optional bounded loss bursts — damage with a known repair deadline,
// unlike Generate's open-ended churn. That bound is what makes a
// time-windowed gate meaningful: a healthy model's recall dip after a
// wave cannot outlive DownFor plus its own recovery lag, so "recall below
// threshold for more than K consecutive rounds" is a correctness signal,
// not noise. Victims are never anchors, never already-down sites; waves
// that would straddle the schedule's tail are skipped so the run ends
// healed. Soak schedules draw no joins, leaves, or partitions; use
// Generate for full-lifecycle churn.
func GenerateSoak(seed uint64, cfg Config, opt SoakOptions) *Schedule {
	opt = opt.withDefaults()
	rng := xrand.New(seed)
	s := &Schedule{Seed: seed, Cfg: cfg}
	members := cfg.Sites - cfg.Joiners

	healAt := map[int]int{} // victim index -> round its scheduled heal fires
	lossyUntil := -1
	for round := 0; round < cfg.Rounds; round++ {
		for v, h := range healAt {
			if h <= round {
				delete(healAt, v)
			}
		}
		if round%opt.CrashEvery == 0 && round+opt.DownFor <= cfg.Rounds-2 {
			for v := 0; v < opt.Victims; v++ {
				victim := anchors + rng.Intn(members-anchors)
				if _, dup := healAt[victim]; dup {
					continue
				}
				healAt[victim] = round + opt.DownFor
				s.Events = append(s.Events,
					Event{Round: round, Op: OpCrash, Site: victim},
					Event{Round: round + opt.DownFor, Op: OpHeal, Site: victim})
			}
		}
		if opt.LossEvery > 0 && round >= lossyUntil && round%opt.LossEvery == opt.LossEvery-1 &&
			round+opt.LossFor <= cfg.Rounds-2 {
			lossyUntil = round + opt.LossFor
			s.Events = append(s.Events,
				Event{Round: round, Op: OpLossBurst, Rate: opt.LossRate},
				Event{Round: lossyUntil, Op: OpLossEnd})
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Round < s.Events[j].Round })
	return s
}

// String renders the schedule as a replayable event list — what a
// failing conformance run prints so the interleaving can be re-run.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule seed=%d sites=%d joiners=%d rounds=%d events=%d\n",
		s.Seed, s.Cfg.Sites, s.Cfg.Joiners, s.Cfg.Rounds, len(s.Events))
	for _, e := range s.Events {
		switch e.Op {
		case OpCrash, OpHeal, OpJoin, OpLeave:
			fmt.Fprintf(&b, "  round %2d: %-14s site %d\n", e.Round, e.Op, e.Site)
		case OpPartition:
			fmt.Fprintf(&b, "  round %2d: %-14s cut %d\n", e.Round, e.Op, e.Cut)
		case OpLossBurst:
			fmt.Fprintf(&b, "  round %2d: %-14s rate %.2f\n", e.Round, e.Op, e.Rate)
		default:
			fmt.Fprintf(&b, "  round %2d: %s\n", e.Round, e.Op)
		}
	}
	return b.String()
}

// Outcome is one replay's measurable result. Two same-seed replays of
// the same model must produce identical Outcomes — the determinism half
// of the oracle.
type Outcome struct {
	// Offered / Acked count the publish workload and how much of it the
	// model acknowledged (quiescence re-offers included).
	Offered, Acked int
	// Joins is how many joiners were actually admitted.
	Joins int
	// Recall is the final lookup recall over acknowledged publishes,
	// averaged across the queriers.
	Recall float64
	// ConvRounds is how many post-quiescence maintenance rounds ran
	// before recall reached 1 (capped; Recall tells whether it got there).
	ConvRounds int
	// HandoffBytes is the wire cost of join admissions (zero for models
	// whose joiners enter by healing).
	HandoffBytes int64
	// Leaves is how many voluntary departures completed; LeaveBytes is
	// what arch.Leaver models' pre-exit key handoffs cost on the wire
	// (zero for models whose leavers simply go dark).
	Leaves     int
	LeaveBytes int64
	// Shed counts publishes the model's admission controller refused
	// (ratelimit errors); zero for models without one installed. Shed
	// publishes are not acknowledged and leave the recall denominator.
	Shed int
	// GossipBytes / DupSuppressed / PullRounds mirror the model's
	// arch.GossipMeter accounting at the end of the replay (all zero for
	// models without a metered dissemination layer) — the E17 gossip
	// efficiency columns.
	GossipBytes   int64
	DupSuppressed int64
	PullRounds    int64
	// Stats is the network's final accounting snapshot.
	Stats netsim.Stats
}

// validate rejects configs the generator or runner would misexecute —
// better an explicit error than a truncated topology whose join events
// index past the site slice.
func (c Config) validate() error {
	switch {
	case c.SitesPerZone < 1 || c.Sites < 1 || c.Sites%c.SitesPerZone != 0:
		return fmt.Errorf("schedule: Sites (%d) must be a positive multiple of SitesPerZone (%d)", c.Sites, c.SitesPerZone)
	case c.Joiners < 0 || c.Sites-c.Joiners <= anchors:
		return fmt.Errorf("schedule: %d joiners leave no crashable members among %d sites (%d anchors)", c.Joiners, c.Sites, anchors)
	case c.Rounds < 2:
		return fmt.Errorf("schedule: %d rounds leave no room for joins before quiescence", c.Rounds)
	case c.PubsPerRound < 1:
		return fmt.Errorf("schedule: PubsPerRound must be positive, got %d", c.PubsPerRound)
	case c.Reoffer < 0:
		return fmt.Errorf("schedule: Reoffer must be non-negative, got %d", c.Reoffer)
	}
	return nil
}

// RoundStats is the per-round reading RunObserved hands its Observer
// after the round's events, workload, and maintenance tick: cumulative
// workload and network accounting plus a live recall probe.
type RoundStats struct {
	// Round is 0-based; quiescence convergence rounds continue the
	// numbering past Cfg.Rounds.
	Round int
	// Offered / Acked are cumulative workload counts so far.
	Offered, Acked int
	// Live is how many sites are currently up (netsim.UpCount).
	Live int
	// Bytes / Msgs are the network's cumulative accounting totals.
	Bytes, Msgs int64
	// Recall is a live probe: the mean fraction of acknowledged
	// publishes resolvable right now from two live member queriers.
	// Probe lookups travel the simulated network, so observed runs
	// charge slightly more bytes than unobserved ones — deterministically.
	Recall float64
	// Shed is the cumulative admission-refusal count (Outcome.Shed so
	// far).
	Shed int
	// PubLatencies holds this round's acknowledged-publish latencies
	// (admission queueing included), in offer order — the feed for the
	// observer's pass_latency_publish series. The slice is handed to the
	// observer; it is not reused across rounds.
	PubLatencies []time.Duration
}

// Observer receives the runner's per-round telemetry. OnEvent fires for
// every schedule event as it is applied; OnRound fires at the end of each
// round (and each quiescence convergence round). Implementations must not
// mutate the network or the model.
type Observer interface {
	OnEvent(round int, e Event)
	OnRound(st RoundStats)
}

// maxConvRounds bounds the quiescence convergence loop.
const maxConvRounds = 12

// offerRetries bounds per-publish re-offers mid-run; quiescence re-offers
// get a slightly larger budget (the heal is supposed to stick).
const (
	offerRetries = 4
	healRetries  = 6
)

// Run replays the schedule against one model instance built by build.
// The topology is seeded from the schedule, so the whole replay is a
// pure function of (schedule, build). Non-fault errors abort the replay:
// by the arch.Model fault contract anything that is not an injected
// unavailability is a model bug.
func Run(s *Schedule, build arch.Builder) (Outcome, error) {
	return RunObserved(s, build, nil)
}

// RunObserved is Run with a live telemetry tap: obs (may be nil) receives
// every applied event and an end-of-round RoundStats including a recall
// probe. A nil obs replays exactly like Run; a non-nil obs adds
// deterministic probe lookups (charged to the network like any traffic),
// so observed and unobserved replays of the same schedule agree on every
// Outcome field except byte/message accounting. Two observed replays of
// the same (schedule, build) are byte-identical to each other — the
// determinism oracle the soak law applies per round rather than at the
// endpoint.
func RunObserved(s *Schedule, build arch.Builder, obs Observer) (Outcome, error) {
	cfg := s.Cfg
	var out Outcome
	if err := cfg.validate(); err != nil {
		return out, err
	}

	// Capability probe on a scratch topology: Joiner models grow their
	// membership (and Leaver models shrink it); everyone else runs the
	// fail-at-start / dark-until-quiescence conventions.
	probeNet, probeSites := netsim.RandomTopology(netsim.Config{}, 2, 2, s.Seed+2)
	probeModel := build(probeNet, probeSites)
	_, joiner := probeModel.(arch.Joiner)
	_, leaver := probeModel.(arch.Leaver)

	net, sites := netsim.RandomTopology(netsim.Config{Seed: s.Seed}, cfg.Sites/cfg.SitesPerZone, cfg.SitesPerZone, s.Seed+1)
	members := sites[:cfg.Sites-cfg.Joiners]
	var m arch.Model
	if joiner {
		m = build(net, members)
	} else {
		m = build(net, sites)
		for _, j := range sites[len(members):] {
			net.Fail(j) // not yet joined
		}
	}

	acked := make(map[provenance.ID]bool)
	var unacked []arch.Pub
	seq := 0
	var roundLat []time.Duration
	// offer re-offers p (scenario.Offer): an admission refusal is load
	// shedding, not a fault, so the publish stays unacknowledged.
	offer := func(p arch.Pub, attempts int) (bool, error) {
		o, err := scenario.Offer(m, p, attempts)
		if o.Shed {
			out.Shed++
		}
		if o.Acked {
			roundLat = append(roundLat, o.Latency)
		}
		return o.Acked, err
	}

	// pendingJoins holds join events that could not complete this round
	// (the joiner or every possible contact was unreachable); they retry
	// at each following round and at quiescence.
	var pendingJoins []netsim.SiteID
	admit := func(site netsim.SiteID) (bool, error) {
		if !joiner {
			net.Heal(site)
			return true, nil
		}
		for _, via := range members {
			if via == site || net.IsDown(via) || net.Partitioned(site, via) {
				continue
			}
			b0 := net.Stats().Bytes
			_, err := m.(arch.Joiner).Join(site, via)
			if err == nil {
				out.HandoffBytes += net.Stats().Bytes - b0
				return true, nil
			}
			if !arch.IsUnavailable(err) {
				return false, fmt.Errorf("%s join of %d: %w", m.Name(), site, err)
			}
			break // retry on a later round rather than hammering every contact
		}
		return false, nil
	}

	// leftIdx marks member indices retired by OpLeave: excluded from the
	// publish workload from their leave round on. pendingLeaves holds
	// departures an arch.Leaver model could not coordinate this round
	// (successor unreachable); they retry each round and at quiescence.
	leftIdx := map[int]bool{}
	var pendingLeaves []int
	depart := func(idx int) (bool, error) {
		if !leaver {
			net.Fail(sites[idx]) // dark until quiescence heals it
			return true, nil
		}
		b0 := net.Stats().Bytes
		_, err := m.(arch.Leaver).Leave(sites[idx])
		if err == nil {
			out.LeaveBytes += net.Stats().Bytes - b0
			return true, nil
		}
		if !arch.IsUnavailable(err) {
			return false, fmt.Errorf("%s leave of %d: %w", m.Name(), sites[idx], err)
		}
		return false, nil
	}
	retryMembership := func() (err error) {
		if pendingJoins, err = retryPending(pendingJoins, admit, &out.Joins); err != nil {
			return err
		}
		pendingLeaves, err = retryPending(pendingLeaves, depart, &out.Leaves)
		return err
	}

	evIdx := 0
	for round := 0; round < cfg.Rounds; round++ {
		if err := retryMembership(); err != nil {
			return out, err
		}
		for evIdx < len(s.Events) && s.Events[evIdx].Round == round {
			e := s.Events[evIdx]
			evIdx++
			switch e.Op {
			case OpCrash:
				net.Fail(sites[e.Site])
			case OpHeal:
				net.Heal(sites[e.Site])
			case OpJoin:
				still, err := retryPending([]netsim.SiteID{sites[e.Site]}, admit, &out.Joins)
				if err != nil {
					return out, err
				}
				pendingJoins = append(pendingJoins, still...)
			case OpPartition:
				net.Partition(sites[:e.Cut], sites[e.Cut:])
			case OpHealPartition:
				net.HealPartition()
			case OpLossBurst:
				net.SetLossRate(e.Rate)
			case OpLossEnd:
				net.SetLossRate(0)
			case OpLeave:
				leftIdx[e.Site] = true
				still, err := retryPending([]int{e.Site}, depart, &out.Leaves)
				if err != nil {
					return out, err
				}
				pendingLeaves = append(pendingLeaves, still...)
			}
			if obs != nil {
				obs.OnEvent(round, e)
			}
		}

		// The round's workload: live, still-member sites publish.
		for i := 0; i < cfg.PubsPerRound; i++ {
			idx := (seq * 7) % len(members)
			for net.IsDown(members[idx]) || leftIdx[idx] {
				idx = (idx + 1) % len(members)
			}
			zone, err := scenario.ZoneAttr(net, members[idx])
			if err != nil {
				return out, err
			}
			p := scenario.Raw(seq, 0xE7, members[idx],
				provenance.Attr(provenance.KeyDomain, provenance.String("membership")), zone)
			seq++
			out.Offered++
			ok, err := offer(p, offerRetries)
			if err != nil {
				return out, err
			}
			if ok {
				acked[p.ID] = true
				// The at-least-once pipeline re-sends what was just taken;
				// a re-offer that finds the site unavailable is dropped.
				for k := 0; k < cfg.Reoffer; k++ {
					if _, err := offer(p, 1); err != nil {
						return out, err
					}
				}
			} else {
				unacked = append(unacked, p)
			}
		}
		if err := m.Tick(); err != nil {
			return out, fmt.Errorf("%s tick (round %d): %w", m.Name(), round, err)
		}
		if obs != nil {
			obs.OnRound(roundStats(round, net, members, leftIdx, &out, acked, m, roundLat))
			roundLat = nil
		}
	}

	// Quiescence: every fault lifted, stragglers admitted, unacknowledged
	// work re-offered — then count maintenance rounds to full recall.
	net.HealPartition()
	net.SetLossRate(0)
	for _, site := range sites {
		net.Heal(site)
	}
	if err := retryMembership(); err != nil {
		return out, err
	}
	for _, p := range unacked {
		ok, err := offer(p, healRetries)
		if err != nil {
			return out, err
		}
		if ok {
			acked[p.ID] = true
		}
	}
	out.Acked = len(acked)

	queriers := []netsim.SiteID{members[0], members[len(members)/2]}
	if cfg.Joiners > 0 {
		queriers = append(queriers, sites[len(members)]) // a joined joiner
	}
	for ; out.ConvRounds < maxConvRounds; out.ConvRounds++ {
		if err := m.Tick(); err != nil {
			return out, fmt.Errorf("%s tick (quiescence): %w", m.Name(), err)
		}
		out.Recall = scenario.LookupRecall(m, queriers, acked)
		if obs != nil {
			st := net.Stats()
			obs.OnRound(RoundStats{
				Round: cfg.Rounds + out.ConvRounds, Offered: out.Offered, Acked: len(acked),
				Live: net.UpCount(), Bytes: st.Bytes, Msgs: st.Messages, Recall: out.Recall,
				Shed: out.Shed, PubLatencies: roundLat,
			})
			roundLat = nil
		}
		if out.Recall == 1 {
			out.ConvRounds++
			break
		}
	}
	if gm, ok := m.(arch.GossipMeter); ok {
		gs := gm.GossipStats()
		out.GossipBytes, out.DupSuppressed, out.PullRounds = gs.Bytes, gs.DupSuppressed, gs.PullRounds
	}
	out.Stats = net.Stats()
	return out, nil
}

// retryPending attempts each pending membership change with try, counts
// the ones that complete in *done, and returns those still pending.
func retryPending[T any](pending []T, try func(T) (bool, error), done *int) ([]T, error) {
	live := pending[:0]
	for _, x := range pending {
		ok, err := try(x)
		if err != nil {
			return nil, err
		}
		if ok {
			*done++
		} else {
			live = append(live, x)
		}
	}
	return live, nil
}

// roundStats probes the live state for an Observer: network totals, up
// count, and a two-querier recall probe over everything acknowledged so
// far. Queriers are the first two live, non-departed members (anchors in
// practice — the generator never crashes them).
func roundStats(round int, net *netsim.Network, members []netsim.SiteID, leftIdx map[int]bool, out *Outcome, acked map[provenance.ID]bool, m arch.Model, lats []time.Duration) RoundStats {
	queriers := make([]netsim.SiteID, 0, 2)
	for i := 0; i < len(members) && len(queriers) < 2; i++ {
		if !net.IsDown(members[i]) && !leftIdx[i] {
			queriers = append(queriers, members[i])
		}
	}
	st := net.Stats()
	rs := RoundStats{
		Round: round, Offered: out.Offered, Acked: len(acked),
		Live: net.UpCount(), Bytes: st.Bytes, Msgs: st.Messages,
		Recall: 1, Shed: out.Shed, PubLatencies: lats,
	}
	if len(queriers) > 0 {
		rs.Recall = scenario.LookupRecall(m, queriers, acked)
	}
	return rs
}
