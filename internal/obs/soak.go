package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"pass/internal/arch"
	"pass/internal/arch/roster"
	"pass/internal/arch/schedule"
	"pass/internal/metrics"
	"pass/internal/netsim"
	"pass/internal/ratelimit"
	"pass/internal/trace"
)

// soakModel resolves a soak's model name: any roster entrant, plus
// central-adm — central under a generously provisioned admission
// controller, which keeps the pass_admission_* and queue-delay series
// live in the daemon.
func soakModel(name string) (arch.Builder, error) {
	if b, ok := roster.Lookup(name); ok {
		return b, nil
	}
	if name != "central-adm" {
		return nil, fmt.Errorf("obs: unknown model %q (accepted: %s, central-adm)",
			name, strings.Join(roster.Names(), ", "))
	}
	central, _ := roster.Lookup("central")
	return func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		m := central(net, sites)
		// Provisioned for the soak's nominal load: the buckets and queue
		// bound only bite if a workload change floods the warehouse,
		// which is exactly what the shed counters are there to catch.
		m.(arch.Admitter).SetAdmission(ratelimit.NewAdmission(ratelimit.Config{
			PerClientRate:  8,
			PerClientBurst: 24,
			Budget:         20 * time.Millisecond,
			MaxBacklog:     200 * time.Millisecond,
		}))
		return m
	}, nil
}

// SoakConfig sizes one model's soak stream. Zero fields select the
// defaults noted per field.
type SoakConfig struct {
	// Model is a roster name or central-adm (default "passnet-eff").
	Model string
	// Seed seeds iteration i's schedule as Seed+i (default 1).
	Seed uint64
	// Sites / SitesPerZone size the topology (defaults 16 / 4).
	Sites, SitesPerZone int
	// Rounds / PubsPerRound size each iteration (defaults 24 / 4).
	Rounds, PubsPerRound int
	// CrashEvery / DownFor / Victims shape the crash waves
	// (schedule.SoakOptions defaults: 6 / 3 / 1).
	CrashEvery, DownFor, Victims int
	// LossEvery / LossFor / LossRate shape loss bursts (default: bursts
	// every 9 rounds for 2 rounds at rate 0.1; set LossEvery < 0 to
	// disable).
	LossEvery, LossFor int
	LossRate           float64
	// Threshold / MaxStreak parameterize the windowed gate: recall below
	// Threshold (default 0.95) for more than MaxStreak (default
	// DownFor+3) consecutive rounds is a breach.
	Threshold float64
	MaxStreak int
	// Interval is wall-clock pacing per simulated round (default none —
	// the daemon sets it so a soak spans real minutes).
	Interval time.Duration
	// Duration bounds the run: no new iteration starts after it elapses.
	// Zero means MaxIterations bounds the run instead.
	Duration time.Duration
	// MaxIterations caps iterations (default 1 when Duration is zero,
	// unbounded otherwise).
	MaxIterations int
}

// withDefaults fills zero fields with the documented defaults.
func (c SoakConfig) withDefaults() SoakConfig {
	if c.Model == "" {
		c.Model = "passnet-eff"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sites == 0 {
		c.Sites = 16
	}
	if c.SitesPerZone == 0 {
		c.SitesPerZone = 4
	}
	if c.Rounds == 0 {
		c.Rounds = 24
	}
	if c.PubsPerRound == 0 {
		c.PubsPerRound = 4
	}
	if c.DownFor == 0 {
		c.DownFor = 3
	}
	if c.LossEvery == 0 {
		c.LossEvery = 9
	}
	if c.Threshold == 0 {
		c.Threshold = 0.95
	}
	if c.MaxStreak == 0 {
		c.MaxStreak = c.DownFor + 3
	}
	if c.Duration == 0 && c.MaxIterations == 0 {
		c.MaxIterations = 1
	}
	return c
}

// SoakStatus is a point-in-time reading of one model's soak, served by
// the daemon's /healthz endpoint.
type SoakStatus struct {
	Model       string  `json:"model"`
	Iterations  int     `json:"iterations"`
	Rounds      int     `json:"rounds"`
	LastRecall  float64 `json:"last_recall"`
	MinRecall   float64 `json:"min_recall"`
	WorstStreak int     `json:"worst_streak"`
	Breaches    int     `json:"breaches"`
	GateOK      bool    `json:"gate_ok"`
	Done        bool    `json:"done"`
	Err         string  `json:"error,omitempty"`
}

// Soak drives one model through successive GenerateSoak streams,
// collecting metrics and trace lines and evaluating the windowed gate.
// Safe for one Run goroutine plus concurrent Status readers.
type Soak struct {
	cfg   SoakConfig
	reg   *metrics.Registry
	tr    *trace.Log
	build arch.Builder
	win   *Windowed

	mu     sync.Mutex
	status SoakStatus
}

// NewSoak resolves the roster model and prepares a soak. reg is required;
// tr may be nil.
func NewSoak(cfg SoakConfig, reg *metrics.Registry, tr *trace.Log) (*Soak, error) {
	cfg = cfg.withDefaults()
	build, err := soakModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	s := &Soak{
		cfg: cfg, reg: reg, tr: tr, build: build,
		win: NewWindowed(cfg.Threshold, cfg.MaxStreak),
	}
	s.status = SoakStatus{Model: cfg.Model, GateOK: true, MinRecall: 1}
	return s, nil
}

// Status returns the current reading.
func (s *Soak) Status() SoakStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}

// noteRound refreshes the live status after each observed round.
func (s *Soak) noteRound() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.status.Rounds = s.win.Rounds()
	s.status.LastRecall = s.win.LastRecall()
	if mr := s.win.MinRecall(); mr <= 1 {
		s.status.MinRecall = mr
	}
	s.status.WorstStreak = s.win.Worst()
	s.status.Breaches = s.win.Breaches()
	s.status.GateOK = s.win.OK()
}

// pacedObserver relays a replay's telemetry to the collector, refreshes
// the soak status, and sleeps Interval per round so a soak spans real
// wall time. Cancellation stops the pacing immediately; the in-flight
// iteration then finishes at simulation speed.
type pacedObserver struct {
	ctx context.Context
	c   *Collector
	s   *Soak
}

func (p pacedObserver) OnEvent(round int, e schedule.Event) { p.c.OnEvent(round, e) }

func (p pacedObserver) OnRound(st schedule.RoundStats) {
	p.c.OnRound(st)
	p.s.noteRound()
	if iv := p.s.cfg.Interval; iv > 0 && p.ctx.Err() == nil {
		select {
		case <-p.ctx.Done():
		case <-time.After(iv):
		}
	}
}

// Run executes soak iterations until the duration or iteration budget is
// spent or ctx is cancelled, and returns the final status. Each iteration
// replays a fresh GenerateSoak schedule (seed Seed+i) against a fresh
// model instance; the windowed gate and the registry's counters span all
// iterations, while below-threshold streaks reset at iteration
// boundaries (independent replays).
func (s *Soak) Run(ctx context.Context) SoakStatus {
	cfg := s.cfg
	schedCfg := schedule.Config{
		Sites: cfg.Sites, SitesPerZone: cfg.SitesPerZone,
		Rounds: cfg.Rounds, PubsPerRound: cfg.PubsPerRound,
	}
	opt := schedule.SoakOptions{
		CrashEvery: cfg.CrashEvery, DownFor: cfg.DownFor, Victims: cfg.Victims,
		LossFor: cfg.LossFor, LossRate: cfg.LossRate,
	}
	if cfg.LossEvery > 0 {
		opt.LossEvery = cfg.LossEvery
	}
	mL := metrics.L("model", cfg.Model)
	start := time.Now()
	for iter := 0; ; iter++ {
		if ctx.Err() != nil {
			break
		}
		if cfg.MaxIterations > 0 && iter >= cfg.MaxIterations {
			break
		}
		if iter > 0 && cfg.Duration > 0 && time.Since(start) >= cfg.Duration {
			break
		}
		sched := schedule.GenerateSoak(cfg.Seed+uint64(iter), schedCfg, opt)
		c := NewCollector(s.reg, s.tr, cfg.Model)
		c.Iter = iter
		c.Win = s.win
		out, err := schedule.RunObserved(sched, c.WrapBuild(s.build), pacedObserver{ctx: ctx, c: c, s: s})
		s.win.EndIteration()
		s.reg.Counter("pass_soak_iterations_total", mL).Inc()
		s.mu.Lock()
		s.status.Iterations = iter + 1
		if err != nil {
			s.status.Err = err.Error()
			s.status.GateOK = false
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		if s.tr != nil {
			s.tr.Append(trace.Event{
				Round: cfg.Rounds, Kind: "soak", Model: cfg.Model, Iter: iter,
				Offered: out.Offered, Acked: out.Acked, Recall: out.Recall,
				Note: fmt.Sprintf("iteration done: worst_streak=%d breaches=%d", s.win.Worst(), s.win.Breaches()),
			})
		}
	}
	s.mu.Lock()
	s.status.Done = true
	st := s.status
	s.mu.Unlock()
	return st
}
