package workload

import (
	"math"
	"testing"
)

func TestOpenLoopDeterminism(t *testing.T) {
	cfg := OpenLoopConfig{
		Seed: 42, Clients: 32, HotKeys: 8, NominalPerRound: 5.5,
		Multiplier: 3, Shape: ShapeBursts, ZipfS: 1.1, QueriesPerRound: 2.5,
	}
	a, b := NewOpenLoop(cfg), NewOpenLoop(cfg)
	for r := 0; r < 50; r++ {
		aa, ba := a.Arrivals(r), b.Arrivals(r)
		if len(aa) != len(ba) {
			t.Fatalf("round %d: %d vs %d arrivals", r, len(aa), len(ba))
		}
		for i := range aa {
			if aa[i] != ba[i] {
				t.Fatalf("round %d arrival %d: %+v vs %+v", r, i, aa[i], ba[i])
			}
		}
		aq, bq := a.Queries(), b.Queries()
		if len(aq) != len(bq) {
			t.Fatalf("round %d: %d vs %d queries", r, len(aq), len(bq))
		}
		for i := range aq {
			if aq[i] != bq[i] {
				t.Fatalf("round %d query %d: %+v vs %+v", r, i, aq[i], bq[i])
			}
		}
	}
	// A different seed produces a different stream.
	c := NewOpenLoop(OpenLoopConfig{
		Seed: 43, Clients: 32, HotKeys: 8, NominalPerRound: 5.5,
		Multiplier: 3, Shape: ShapeBursts, ZipfS: 1.1, QueriesPerRound: 2.5,
	})
	diff := false
	a2 := NewOpenLoop(cfg)
	for r := 0; r < 20 && !diff; r++ {
		x, y := a2.Arrivals(r), c.Arrivals(r)
		if len(x) != len(y) {
			diff = true
			break
		}
		for i := range x {
			if x[i] != y[i] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestOpenLoopShapes(t *testing.T) {
	total := func(cfg OpenLoopConfig, rounds int) int {
		g := NewOpenLoop(cfg)
		n := 0
		for r := 0; r < rounds; r++ {
			n += len(g.Arrivals(r))
		}
		return n
	}
	flat := OpenLoopConfig{Seed: 1, NominalPerRound: 10, Shape: ShapeFlat}
	if got := total(flat, 100); got < 900 || got > 1100 {
		t.Fatalf("flat total = %d, want ~1000", got)
	}
	// Multiplier scales the whole schedule.
	x10 := flat
	x10.Multiplier = 10
	if got := total(x10, 100); got < 9000 || got > 11000 {
		t.Fatalf("10x total = %d, want ~10000", got)
	}
	// Bursts: burst rounds run at BurstGain times the quiet rounds.
	burst := OpenLoopConfig{
		Seed: 2, NominalPerRound: 10, Shape: ShapeBursts,
		Period: 10, BurstLen: 2, BurstGain: 5,
	}
	g := NewOpenLoop(burst)
	if got, want := g.Rate(0), 50.0; got != want {
		t.Fatalf("burst-round rate = %v, want %v", got, want)
	}
	if got, want := g.Rate(5), 10.0; got != want {
		t.Fatalf("quiet-round rate = %v, want %v", got, want)
	}
	// Diurnal: rate oscillates around nominal with mean ~nominal.
	diurnal := OpenLoopConfig{Seed: 3, NominalPerRound: 10, Shape: ShapeDiurnal, Period: 16}
	g = NewOpenLoop(diurnal)
	lo, hi, mean := math.Inf(1), math.Inf(-1), 0.0
	for r := 0; r < 16; r++ {
		v := g.Rate(r)
		lo, hi, mean = math.Min(lo, v), math.Max(hi, v), mean+v/16
	}
	if lo >= 10 || hi <= 10 || math.Abs(mean-10) > 0.5 {
		t.Fatalf("diurnal lo/hi/mean = %v/%v/%v, want oscillation around 10", lo, hi, mean)
	}
}

func TestOpenLoopZipfSkew(t *testing.T) {
	g := NewOpenLoop(OpenLoopConfig{
		Seed: 11, Clients: 64, HotKeys: 64, NominalPerRound: 100, ZipfS: 1.2,
	})
	clientHits := make(map[int]int)
	keyHits := make(map[int]int)
	n := 0
	for r := 0; r < 50; r++ {
		for _, a := range g.Arrivals(r) {
			clientHits[a.Client]++
			keyHits[a.Key]++
			n++
		}
	}
	// Under Zipf(1.2) over 64 items the top item draws ~21% of traffic;
	// uniform would give ~1.6%. Assert strong concentration.
	if frac := float64(clientHits[0]) / float64(n); frac < 0.10 {
		t.Fatalf("hottest client drew %.1f%%, want >= 10%% under skew", 100*frac)
	}
	if frac := float64(keyHits[0]) / float64(n); frac < 0.10 {
		t.Fatalf("hottest key drew %.1f%%, want >= 10%% under skew", 100*frac)
	}
	if clientHits[0] <= clientHits[63] {
		t.Fatal("skew inverted: coldest client outdrew hottest")
	}

	// ZipfS = 0 degenerates to uniform: the head item stays near 1/64.
	u := NewOpenLoop(OpenLoopConfig{Seed: 11, Clients: 64, HotKeys: 64, NominalPerRound: 100})
	uHits, uN := 0, 0
	for r := 0; r < 50; r++ {
		for _, a := range u.Arrivals(r) {
			if a.Client == 0 {
				uHits++
			}
			uN++
		}
	}
	if frac := float64(uHits) / float64(uN); frac > 0.05 {
		t.Fatalf("uniform head client drew %.1f%%, want ~1.6%%", 100*frac)
	}
}

func BenchmarkOpenLoopGen(b *testing.B) {
	g := NewOpenLoop(OpenLoopConfig{
		Seed: 1, Clients: 1024, HotKeys: 64, NominalPerRound: 100,
		Multiplier: 10, Shape: ShapeBursts, ZipfS: 1.1, QueriesPerRound: 10,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Arrivals(i)
		_ = g.Queries()
	}
}
