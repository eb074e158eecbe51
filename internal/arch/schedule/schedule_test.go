package schedule

import (
	"strings"
	"testing"

	"pass/internal/arch"
	"pass/internal/arch/central"
	"pass/internal/arch/dht"
	"pass/internal/netsim"
)

var testCfg = Config{
	Sites:        16,
	SitesPerZone: 4,
	Joiners:      2,
	Rounds:       8,
	EventRate:    0.6,
	PubsPerRound: 4,
}

func TestGenerateDeterministicAndSeedSensitive(t *testing.T) {
	a, b := Generate(42, testCfg), Generate(42, testCfg)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed produced %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverged across identical seeds: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	c := Generate(43, testCfg)
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestGenerateWellFormed: the generator's structural invariants — every
// joiner admitted exactly once before the final round, anchors and
// joiners never crashed, heals only of crashed sites, partitions and
// loss bursts opened at most singly and always closed by the end, and
// leaves only of live founding members that never departed before — with
// a departed site never crashed, healed, or left again afterwards.
func TestGenerateWellFormed(t *testing.T) {
	members := testCfg.Sites - testCfg.Joiners
	sawLeave := false
	for seed := uint64(1); seed <= 50; seed++ {
		s := Generate(seed, testCfg)
		joined := map[int]int{}
		crashed := map[int]bool{}
		left := map[int]bool{}
		partitioned, lossy := false, false
		lastRound := -1
		for _, e := range s.Events {
			if e.Round < lastRound || e.Round >= testCfg.Rounds {
				t.Fatalf("seed %d: event rounds out of order or range: %+v", seed, e)
			}
			lastRound = e.Round
			switch e.Op {
			case OpJoin:
				joined[e.Site]++
				if e.Site < members {
					t.Fatalf("seed %d: join of a founding member %d", seed, e.Site)
				}
				if e.Round >= testCfg.Rounds-1 {
					t.Fatalf("seed %d: join in the final round leaves no time to converge", seed)
				}
			case OpCrash:
				if e.Site < anchors || e.Site >= members {
					t.Fatalf("seed %d: crash of anchor or joiner %d", seed, e.Site)
				}
				if crashed[e.Site] {
					t.Fatalf("seed %d: double crash of %d", seed, e.Site)
				}
				if left[e.Site] {
					t.Fatalf("seed %d: crash of departed member %d", seed, e.Site)
				}
				crashed[e.Site] = true
			case OpHeal:
				if !crashed[e.Site] {
					t.Fatalf("seed %d: heal of a live site %d", seed, e.Site)
				}
				delete(crashed, e.Site)
			case OpLeave:
				sawLeave = true
				if e.Site < anchors || e.Site >= members {
					t.Fatalf("seed %d: leave of anchor or joiner %d — only founding members depart", seed, e.Site)
				}
				if crashed[e.Site] {
					t.Fatalf("seed %d: leave of crashed member %d", seed, e.Site)
				}
				if left[e.Site] {
					t.Fatalf("seed %d: double leave of %d", seed, e.Site)
				}
				left[e.Site] = true
			case OpPartition:
				if partitioned {
					t.Fatalf("seed %d: nested partition", seed)
				}
				if e.Cut < testCfg.Sites/4 || e.Cut >= testCfg.Sites {
					t.Fatalf("seed %d: degenerate cut %d", seed, e.Cut)
				}
				partitioned = true
			case OpHealPartition:
				partitioned = false
			case OpLossBurst:
				if lossy {
					t.Fatalf("seed %d: nested loss burst", seed)
				}
				if e.Rate <= 0 || e.Rate >= 0.3 {
					t.Fatalf("seed %d: loss rate %v out of range", seed, e.Rate)
				}
				lossy = true
			case OpLossEnd:
				lossy = false
			}
		}
		if partitioned || lossy {
			t.Fatalf("seed %d: schedule ends with an open partition/loss burst", seed)
		}
		for j := 0; j < testCfg.Joiners; j++ {
			if joined[members+j] != 1 {
				t.Fatalf("seed %d: joiner %d admitted %d times", seed, members+j, joined[members+j])
			}
		}
		if len(left) > (members)/8 {
			t.Fatalf("seed %d: %d departures exceed the members/8 budget", seed, len(left))
		}
	}
	if !sawLeave {
		t.Fatal("no seed in 1..50 generated a leave — the verb is unreachable")
	}
}

// TestRunLeaveConventions: a schedule with a leave runs under both
// departure conventions — dht retires the member through Leave (charged
// pre-exit handoff, membership shrinks for good), central sends it dark
// until quiescence — and both still meet the oracle, byte-identically on
// replay.
func TestRunLeaveConventions(t *testing.T) {
	var s *Schedule
	for seed := uint64(1); seed <= 50; seed++ {
		c := Generate(seed, testCfg)
		for _, e := range c.Events {
			if e.Op == OpLeave {
				s = c
				break
			}
		}
		if s != nil {
			break
		}
	}
	if s == nil {
		t.Fatal("no schedule with a leave in seeds 1..50")
	}
	nLeaves := 0
	for _, e := range s.Events {
		if e.Op == OpLeave {
			nLeaves++
		}
	}

	builds := map[string]arch.Builder{
		"dht":     func(net *netsim.Network, sites []netsim.SiteID) arch.Model { return dht.New(net, sites) },
		"central": func(net *netsim.Network, sites []netsim.SiteID) arch.Model { return central.New(net, sites[0]) },
	}
	for _, name := range []string{"dht", "central"} {
		o, err := Run(s, builds[name])
		if err != nil {
			t.Fatalf("%s: %v\nreplay:\n%s", name, err, s)
		}
		if o.Leaves != nLeaves {
			t.Fatalf("%s: %d/%d departures completed\nreplay:\n%s", name, o.Leaves, nLeaves, s)
		}
		if o.Recall < 0.99 {
			t.Fatalf("%s: recall %.3f after leaves, want >= 0.99\nreplay:\n%s", name, o.Recall, s)
		}
		if name == "dht" && o.LeaveBytes == 0 {
			t.Fatal("dht leaves charged no bytes — the pre-exit handoff was free")
		}
		if name == "central" && o.LeaveBytes != 0 {
			t.Fatal("dark-convention leavers charged leave bytes")
		}
		o2, err := Run(s, builds[name])
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		if o != o2 {
			t.Fatalf("%s: same-seed replay with leaves diverged:\n%+v\nvs\n%+v", name, o, o2)
		}
	}
}

// TestRunRejectsMalformedConfig: a population that does not fill whole
// zones (or starves the generator of crashable members) is an explicit
// error, not a truncated topology that panics at the first join event.
func TestRunRejectsMalformedConfig(t *testing.T) {
	build := func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		return central.New(net, sites[0])
	}
	bad := []Config{
		{Sites: 18, SitesPerZone: 4, Joiners: 2, Rounds: 8, EventRate: 0.5, PubsPerRound: 4},  // partial zone
		{Sites: 16, SitesPerZone: 4, Joiners: 14, Rounds: 8, EventRate: 0.5, PubsPerRound: 4}, // no crashable members
		{Sites: 16, SitesPerZone: 4, Joiners: 2, Rounds: 1, EventRate: 0.5, PubsPerRound: 4},  // no room for joins
		{Sites: 16, SitesPerZone: 4, Joiners: 2, Rounds: 8, EventRate: 0.5, PubsPerRound: 0},  // no workload
	}
	for i, cfg := range bad {
		s := &Schedule{Seed: 1, Cfg: cfg}
		if _, err := Run(s, build); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestScheduleStringReplayable(t *testing.T) {
	s := Generate(7, testCfg)
	out := s.String()
	for _, want := range []string{"seed=7", "join", "round"} {
		if !strings.Contains(out, want) {
			t.Fatalf("schedule listing missing %q:\n%s", want, out)
		}
	}
}

// TestRunOracleAndDeterminism: the runner holds its oracle against both
// membership conventions — dht grows its ring through Join (handoff
// bytes charged), central runs the fail-at-start convention — and a
// same-seed replay is byte-identical.
func TestRunOracleAndDeterminism(t *testing.T) {
	builds := map[string]arch.Builder{
		"dht": func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
			return dht.New(net, sites)
		},
		"central": func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
			return central.New(net, sites[0])
		},
	}
	for _, name := range []string{"dht", "central"} {
		build := builds[name]
		s := Generate(99, testCfg)
		o, err := Run(s, build)
		if err != nil {
			t.Fatalf("%s: %v\nreplay:\n%s", name, err, s)
		}
		if o.Recall < 0.99 {
			t.Fatalf("%s: recall %.3f, want >= 0.99\nreplay:\n%s", name, o.Recall, s)
		}
		if o.Joins != testCfg.Joiners {
			t.Fatalf("%s: %d/%d joiners admitted", name, o.Joins, testCfg.Joiners)
		}
		if o.Offered != testCfg.Rounds*testCfg.PubsPerRound {
			t.Fatalf("%s: offered %d publishes, want %d", name, o.Offered, testCfg.Rounds*testCfg.PubsPerRound)
		}
		if o.Stats.Bytes == 0 || o.Stats.Messages == 0 {
			t.Fatalf("%s: no traffic accounted", name)
		}
		if name == "dht" && o.HandoffBytes == 0 {
			t.Fatal("dht joins charged no handoff bytes")
		}
		if name == "central" && o.HandoffBytes != 0 {
			t.Fatal("heal-convention joiners charged handoff bytes")
		}
		o2, err := Run(s, build)
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		if o != o2 {
			t.Fatalf("%s: same-seed replay diverged:\n%+v\nvs\n%+v", name, o, o2)
		}
	}
}

// TestGenerateSoakWellFormed: the soak generator's structural invariants —
// every crash has its heal exactly DownFor rounds later, victims are
// never anchors and never doubly crashed, loss bursts are bounded and
// closed, events sort by round, and the stream is seed-deterministic.
func TestGenerateSoakWellFormed(t *testing.T) {
	cfg := Config{Sites: 16, SitesPerZone: 4, Rounds: 24, PubsPerRound: 3}
	opt := SoakOptions{CrashEvery: 6, DownFor: 3, Victims: 2, LossEvery: 9, LossFor: 2, LossRate: 0.1}
	for seed := uint64(1); seed <= 30; seed++ {
		s := GenerateSoak(seed, cfg, opt)
		if len(s.Events) == 0 {
			t.Fatalf("seed %d: empty soak schedule", seed)
		}
		healAt := map[int]int{} // victim -> pending heal round
		lossy := false
		lastRound := -1
		for _, e := range s.Events {
			if e.Round < lastRound || e.Round >= cfg.Rounds {
				t.Fatalf("seed %d: event out of order or range: %+v", seed, e)
			}
			lastRound = e.Round
			switch e.Op {
			case OpCrash:
				if e.Site < anchors {
					t.Fatalf("seed %d: anchor crashed: %+v", seed, e)
				}
				if _, dup := healAt[e.Site]; dup {
					t.Fatalf("seed %d: site %d crashed while already down", seed, e.Site)
				}
				healAt[e.Site] = e.Round + opt.DownFor
			case OpHeal:
				want, ok := healAt[e.Site]
				if !ok || want != e.Round {
					t.Fatalf("seed %d: heal of %d at round %d, want scheduled %d", seed, e.Site, e.Round, want)
				}
				delete(healAt, e.Site)
			case OpLossBurst:
				if lossy || e.Rate <= 0 || e.Rate > 0.2 {
					t.Fatalf("seed %d: malformed loss burst %+v (lossy=%v)", seed, e, lossy)
				}
				lossy = true
			case OpLossEnd:
				if !lossy {
					t.Fatalf("seed %d: loss-end without burst", seed)
				}
				lossy = false
			default:
				t.Fatalf("seed %d: soak stream drew op %s", seed, e.Op)
			}
		}
		if len(healAt) != 0 || lossy {
			t.Fatalf("seed %d: schedule ends with open damage: heals=%v lossy=%v", seed, healAt, lossy)
		}
		s2 := GenerateSoak(seed, cfg, opt)
		if s.String() != s2.String() {
			t.Fatalf("seed %d: soak schedule not deterministic", seed)
		}
	}
}

// seriesRecorder implements Observer for tests: per-round recall series
// plus applied-event count.
type seriesRecorder struct {
	recalls []float64
	rounds  []RoundStats
	events  int
}

func (r *seriesRecorder) OnEvent(round int, e Event) { r.events++ }
func (r *seriesRecorder) OnRound(st RoundStats) {
	r.rounds = append(r.rounds, st)
	r.recalls = append(r.recalls, st.Recall)
}

// TestRunObserved: the observer tap sees every event and every round
// (quiescence included), the recall probe dips while a victim is down and
// recovers, the unobserved Outcome is unchanged by observation except for
// probe traffic accounting, and two observed replays agree byte-for-byte.
func TestRunObserved(t *testing.T) {
	cfg := Config{Sites: 16, SitesPerZone: 4, Rounds: 18, PubsPerRound: 4}
	s := GenerateSoak(7, cfg, SoakOptions{CrashEvery: 6, DownFor: 3, Victims: 1})
	build := func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		return central.New(net, sites[0])
	}

	rec := &seriesRecorder{}
	o, err := RunObserved(s, build, rec)
	if err != nil {
		t.Fatalf("%v\nreplay:\n%s", err, s)
	}
	if rec.events != len(s.Events) {
		t.Fatalf("observer saw %d events, schedule has %d", rec.events, len(s.Events))
	}
	if len(rec.rounds) < cfg.Rounds {
		t.Fatalf("observer saw %d rounds, want >= %d", len(rec.rounds), cfg.Rounds)
	}
	for i, st := range rec.rounds[:cfg.Rounds] {
		if st.Round != i {
			t.Fatalf("round numbering broken at %d: %+v", i, st)
		}
	}
	dipped := false
	for _, r := range rec.recalls {
		if r < 1 {
			dipped = true
		}
	}
	// central stores everything at the warehouse (an anchor), so its
	// probe recall never dips — but a victim site losing its records
	// would. Either way the series must end recovered.
	if last := rec.recalls[len(rec.recalls)-1]; last != 1 {
		t.Fatalf("soak did not end recovered: final probe recall %.3f (dipped=%v)", last, dipped)
	}

	// Unobserved outcome matches on every field except traffic accounting
	// (probe lookups are charged like any other messages).
	plain, err := Run(s, build)
	if err != nil {
		t.Fatal(err)
	}
	o.Stats, plain.Stats = netsim.Stats{}, netsim.Stats{}
	if o != plain {
		t.Fatalf("observation changed the outcome:\n%+v\nvs\n%+v", o, plain)
	}

	rec2 := &seriesRecorder{}
	o2, err := RunObserved(s, build, rec2)
	if err != nil {
		t.Fatal(err)
	}
	o2.Stats = netsim.Stats{}
	if o != o2 || len(rec2.recalls) != len(rec.recalls) {
		t.Fatal("observed replay diverged across identical seeds")
	}
	for i := range rec.recalls {
		if rec.recalls[i] != rec2.recalls[i] {
			t.Fatalf("recall series diverged at round %d: %v vs %v", i, rec.recalls[i], rec2.recalls[i])
		}
	}
}
