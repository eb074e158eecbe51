package workload

import "math"

// Shape selects the rate schedule of an open-loop generator: how the
// offered load varies round to round, independent of how fast the serving
// side drains it (that independence is what makes the load open-loop).
type Shape string

const (
	// ShapeFlat offers a constant rate.
	ShapeFlat Shape = "flat"
	// ShapeBursts alternates quiet rounds with BurstGain-times bursts.
	ShapeBursts Shape = "bursts"
	// ShapeDiurnal follows a sinusoidal day/night cycle of length Period.
	ShapeDiurnal Shape = "diurnal"
)

// OpenLoopConfig parameterizes an open-loop arrival generator. The zero
// value is usable: withDefaults fills every field a caller leaves unset.
type OpenLoopConfig struct {
	Seed uint64
	// Clients is the producer population; arrivals draw their client
	// Zipf(ZipfS)-skewed, so client 0 is the hottest producer.
	Clients int
	// HotKeys is the key space arrivals and queries target, also
	// Zipf-skewed (key 0 hottest).
	HotKeys int
	// NominalPerRound is the baseline expected arrivals per round at
	// multiplier 1.
	NominalPerRound float64
	// Multiplier scales the whole schedule: E18 sweeps 1x/10x/100x.
	Multiplier float64
	Shape      Shape
	// Period spaces bursts (ShapeBursts) or sets the cycle length
	// (ShapeDiurnal).
	Period int
	// BurstLen rounds of each burst run at BurstGain times nominal.
	BurstLen  int
	BurstGain float64
	// ZipfS is the skew exponent for client and key draws; 0 disables
	// skew (uniform draws).
	ZipfS float64
	// QueriesPerRound is the expected closed-loop query intents per round;
	// queries target hot keys.
	QueriesPerRound float64
}

func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
	if c.Clients <= 0 {
		c.Clients = 64
	}
	if c.HotKeys <= 0 {
		c.HotKeys = 16
	}
	if c.NominalPerRound <= 0 {
		c.NominalPerRound = 8
	}
	if c.Multiplier <= 0 {
		c.Multiplier = 1
	}
	if c.Shape == "" {
		c.Shape = ShapeFlat
	}
	if c.Period <= 0 {
		c.Period = 8
	}
	if c.BurstLen <= 0 {
		c.BurstLen = 2
	}
	if c.BurstGain <= 0 {
		c.BurstGain = 4
	}
	if c.ZipfS < 0 {
		c.ZipfS = 0
	}
	return c
}

// Arrival is one open-loop publish arrival: which client produced it and
// which hot key (attribute bucket) it belongs to.
type Arrival struct {
	Client int
	Key    int
}

// QueryIntent is one closed-loop query a client wants answered: who asks
// and which hot key they ask about.
type QueryIntent struct {
	Client int
	Key    int
}

// OpenLoop generates per-round arrival and query-intent lists,
// deterministic given the config's seed. Rounds must be consumed in
// order (the generator advances one RNG stream); build one generator per
// experiment cell.
type OpenLoop struct {
	cfg       OpenLoopConfig
	rng       *Rand
	clientCDF []float64
	keyCDF    []float64
}

// NewOpenLoop builds a generator from cfg (defaults filled in).
func NewOpenLoop(cfg OpenLoopConfig) *OpenLoop {
	cfg = cfg.withDefaults()
	return &OpenLoop{
		cfg:       cfg,
		rng:       NewRand(cfg.Seed),
		clientCDF: zipfCDF(cfg.Clients, cfg.ZipfS),
		keyCDF:    zipfCDF(cfg.HotKeys, cfg.ZipfS),
	}
}

// zipfCDF precomputes the cumulative distribution of Zipf(s) over n items
// (s = 0 degenerates to uniform).
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// drawCDF inverts a CDF at a uniform draw via binary search.
func drawCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Rate returns the expected arrivals in the given round — the shape
// function times nominal times multiplier.
func (g *OpenLoop) Rate(round int) float64 {
	base := g.cfg.NominalPerRound * g.cfg.Multiplier
	switch g.cfg.Shape {
	case ShapeBursts:
		if round%g.cfg.Period < g.cfg.BurstLen {
			return base * g.cfg.BurstGain
		}
		return base
	case ShapeDiurnal:
		// 1 +- 0.75 sinusoid: troughs at a quarter of nominal, peaks at
		// 1.75x, mean equal to nominal.
		return base * (1 + 0.75*math.Sin(2*math.Pi*float64(round)/float64(g.cfg.Period)))
	default:
		return base
	}
}

// count realizes an expected rate into a whole number of events: the
// integer part always happens, the fractional part with matching
// probability.
func (g *OpenLoop) count(rate float64) int {
	n := int(rate)
	if g.rng.Float64() < rate-float64(n) {
		n++
	}
	return n
}

// Arrivals returns the publish arrivals for one round, in arrival order.
func (g *OpenLoop) Arrivals(round int) []Arrival {
	n := g.count(g.Rate(round))
	out := make([]Arrival, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Arrival{
			Client: drawCDF(g.clientCDF, g.rng.Float64()),
			Key:    drawCDF(g.keyCDF, g.rng.Float64()),
		})
	}
	return out
}

// Queries returns the closed-loop query intents for one round; they
// follow the hot-key skew.
func (g *OpenLoop) Queries(round int) []QueryIntent {
	n := g.count(g.cfg.QueriesPerRound)
	out := make([]QueryIntent, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, QueryIntent{
			Client: drawCDF(g.clientCDF, g.rng.Float64()),
			Key:    drawCDF(g.keyCDF, g.rng.Float64()),
		})
	}
	return out
}
