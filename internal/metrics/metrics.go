// Package metrics provides the measurement primitives used throughout the
// PASS reproduction: counters, latency histograms with percentile
// estimation, simple rate meters, a fixed-width table renderer used by
// the experiment harness to print paper-style result tables, the labeled
// registry real nodes serve on /metrics, and the windowed recall gate the
// soaks share.
//
// All types are safe for concurrent use unless otherwise noted.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Negative n is ignored.
func (c *Counter) Add(n int64) {
	if n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current counter value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// Set forces the counter to v. Monotonic sources should use Add/Inc; Set
// exists for samplers that mirror an upstream cumulative total (netsim
// shard stats, gossip meters) into the registry once per round.
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FGauge is a settable instantaneous float64 value — recall probes,
// rates, fractions. The zero value is usable and reads 0.
type FGauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *FGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram records observations and reports count, mean, min, max, and
// percentiles. Observations are kept exactly (sorted lazily) up to maxKeep
// samples, after which reservoir sampling keeps a uniform subset; exact
// count, sum, min, and max are always maintained.
type Histogram struct {
	mu       sync.Mutex
	samples  []float64
	count    int64
	sum      float64
	min      float64
	max      float64
	maxKeep  int
	rngState uint64
	sorted   bool
}

// reservoirSeed is the fixed xorshift seed every histogram starts from, so
// that same-seed runs make identical reservoir decisions. Reset restores it.
const reservoirSeed uint64 = 0x9e3779b97f4a7c15

// NewHistogram returns a histogram that retains at most maxKeep samples for
// percentile estimation. maxKeep <= 0 selects a default of 16384.
func NewHistogram(maxKeep int) *Histogram {
	if maxKeep <= 0 {
		maxKeep = 16384
	}
	return &Histogram{
		maxKeep:  maxKeep,
		min:      math.Inf(1),
		max:      math.Inf(-1),
		rngState: reservoirSeed,
	}
}

// nextRandLocked advances the xorshift state; callers hold h.mu.
func (h *Histogram) nextRandLocked() uint64 {
	h.rngState ^= h.rngState << 13
	h.rngState ^= h.rngState >> 7
	h.rngState ^= h.rngState << 17
	return h.rngState
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.sorted = false
	if len(h.samples) < h.maxKeep {
		h.samples = append(h.samples, v)
		return
	}
	// Reservoir sampling: replace a random slot with probability keep/count.
	idx := h.nextRandLocked() % uint64(h.count)
	if idx < uint64(len(h.samples)) {
		h.samples[idx] = v
	}
}

// ObserveDuration records a duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d.Nanoseconds()) / 1e3)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 with no observations.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) over retained samples using
// linear interpolation. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// quantileLocked computes the q-quantile; callers hold h.mu. Sorting is
// lazy and shared across consecutive quantile reads.
func (h *Histogram) quantileLocked(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	pos := q * float64(len(h.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.samples[lo]
	}
	frac := pos - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Snapshot is a point-in-time summary of a histogram.
type Snapshot struct {
	Count          int64
	Sum            float64
	Mean, Min, Max float64
	P50, P90, P99  float64
	P999           float64
}

// Snapshot returns a consistent summary: every field is read under one
// lock acquisition, so Mean is exactly Sum/Count and the quantiles come
// from the same sample pool even while other goroutines Observe.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Snapshot{Count: h.count, Sum: h.sum}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.count)
	s.Min = h.min
	s.Max = h.max
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	s.P999 = h.quantileLocked(0.999)
	return s
}

// Reset clears all recorded observations and re-seeds the reservoir RNG,
// so a reset histogram makes the same retention decisions as a fresh one
// (the suite's same-seed determinism convention).
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = h.samples[:0]
	h.count = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
	h.sorted = false
	h.rngState = reservoirSeed
}

// Merge folds o's observations into h: exact count/sum/min/max combine,
// and o's retained samples join h's sample pool. When the union exceeds
// h's retention cap, each side's retention quota is proportional to its
// true observation count — not its pool size — so a 100-observation
// histogram merged into a 1M-observation one contributes ~0.01% of the
// merged pool instead of swamping the tail quantiles. o is read under its
// own lock and released before h locks, so concurrent a.Merge(b) /
// b.Merge(a) cannot deadlock. Merging a histogram into itself, or a
// nil/empty o, is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o == h {
		return
	}
	o.mu.Lock()
	count, sum, min, max := o.count, o.sum, o.min, o.max
	samples := append([]float64(nil), o.samples...)
	o.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	hCount := h.count
	h.count += count
	h.sum += sum
	if min < h.min {
		h.min = min
	}
	if max > h.max {
		h.max = max
	}
	h.sorted = false
	if len(h.samples)+len(samples) <= h.maxKeep {
		// Union fits: keep every sample. Each side's pool already carries
		// its own count-derived weight only when neither overflowed; for
		// small histograms this is the exact union.
		h.samples = append(h.samples, samples...)
		return
	}
	// Overflow: split the cap between the two pools in proportion to the
	// true observation counts, then uniformly subsample each side to its
	// quota. This preserves each side's weight in the merged quantiles.
	n := h.maxKeep
	kO := int(math.Round(float64(n) * float64(count) / float64(hCount+count)))
	if kO > len(samples) {
		kO = len(samples)
	}
	kH := n - kO
	if kH > len(h.samples) {
		kH = len(h.samples)
		if extra := n - kH; extra < len(samples) {
			kO = extra
		} else {
			kO = len(samples)
		}
	}
	h.samples = h.pickLocked(h.samples, kH)
	h.samples = append(h.samples, h.pickLocked(samples, kO)...)
}

// pickLocked uniformly selects k elements of pool without replacement via
// a partial Fisher–Yates shuffle, mutating pool in place and returning its
// first k elements. Callers hold h.mu (the selection consumes h's RNG).
func (h *Histogram) pickLocked(pool []float64, k int) []float64 {
	if k >= len(pool) {
		return pool
	}
	for i := 0; i < k; i++ {
		j := i + int(h.nextRandLocked()%uint64(len(pool)-i))
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:k]
}

// Label is one dimension of a labeled metric, e.g. {model=passnet-eff} or
// {site=3}. A metric's identity in a Registry is its name plus the set of
// its labels; label order does not matter (the registry canonicalizes by
// sorting on key).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// canonLabels returns a sorted copy of labels (stable across call sites).
func canonLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// seriesKey renders name+labels canonically for map identity. The
// separators are control bytes no sane metric name or label contains.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0x00)
		b.WriteString(l.Key)
		b.WriteByte(0x01)
		b.WriteString(l.Value)
	}
	return b.String()
}

type counterEntry struct {
	name   string
	labels []Label
	c      *Counter
}

type gaugeEntry struct {
	name   string
	labels []Label
	g      *Gauge
}

type fgaugeEntry struct {
	name   string
	labels []Label
	g      *FGauge
}

type histEntry struct {
	name   string
	labels []Label
	h      *Histogram
}

// Registry is a named collection of counters, gauges, and histograms,
// optionally labeled (e.g. {model, site}). Metrics with the same name and
// the same canonical label set share one underlying instance. The zero
// value is not usable; use NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*counterEntry
	gauges     map[string]*gaugeEntry
	fgauges    map[string]*fgaugeEntry
	histograms map[string]*histEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*counterEntry),
		gauges:     make(map[string]*gaugeEntry),
		fgauges:    make(map[string]*fgaugeEntry),
		histograms: make(map[string]*histEntry),
	}
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	ls := canonLabels(labels)
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.counters[key]
	if !ok {
		e = &counterEntry{name: name, labels: ls, c: &Counter{}}
		r.counters[key] = e
	}
	return e.c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	ls := canonLabels(labels)
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.gauges[key]
	if !ok {
		e = &gaugeEntry{name: name, labels: ls, g: &Gauge{}}
		r.gauges[key] = e
	}
	return e.g
}

// FGauge returns the float gauge for name+labels, creating it on first use.
func (r *Registry) FGauge(name string, labels ...Label) *FGauge {
	ls := canonLabels(labels)
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.fgauges[key]
	if !ok {
		e = &fgaugeEntry{name: name, labels: ls, g: &FGauge{}}
		r.fgauges[key] = e
	}
	return e.g
}

// Histogram returns the histogram for name+labels, creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	ls := canonLabels(labels)
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.histograms[key]
	if !ok {
		e = &histEntry{name: name, labels: ls, h: NewHistogram(0)}
		r.histograms[key] = e
	}
	return e.h
}

// CounterNames returns the sorted distinct names of all registered
// counters (label sets of the same name collapse to one entry).
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool, len(r.counters))
	names := make([]string, 0, len(r.counters))
	for _, e := range r.counters {
		if !seen[e.name] {
			seen[e.name] = true
			names = append(names, e.name)
		}
	}
	sort.Strings(names)
	return names
}

// Reset clears every metric in the registry.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.counters {
		e.c.Reset()
	}
	for _, e := range r.gauges {
		e.g.Set(0)
	}
	for _, e := range r.fgauges {
		e.g.Set(0)
	}
	for _, e := range r.histograms {
		e.h.Reset()
	}
}

// Table renders aligned fixed-width result tables, the output format of the
// experiment harness. It is not safe for concurrent use.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case time.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with a title line, a header row, and a separator.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float compactly: integers without decimals, small
// magnitudes with enough precision to be meaningful.
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// FormatBytes renders a byte count using binary units.
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// Timer measures elapsed wall time into a histogram.
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer begins timing against h.
func StartTimer(h *Histogram) Timer {
	return Timer{h: h, start: time.Now()}
}

// Stop records the elapsed time (in microseconds) and returns it.
func (t Timer) Stop() time.Duration {
	d := time.Since(t.start)
	if t.h != nil {
		t.h.ObserveDuration(d)
	}
	return d
}
