package metrics

import "math"

// Windowed is the time-windowed soak gate that cluster.Soak and the
// RecallSoak conformance law share: recall may dip below the threshold
// (a crash wave does that by construction), but never for more than
// maxStreak CONSECUTIVE rounds — a duration-sensitive correctness bar,
// as opposed to an endpoint recall check. Build one with NewWindowed.
// Not safe for concurrent use.
type Windowed struct {
	threshold float64
	maxStreak int

	cur, worst int
	breaches   int
	rounds     int
	minRecall  float64
}

// NewWindowed returns a gate with the given threshold and streak budget.
func NewWindowed(threshold float64, maxStreak int) *Windowed {
	return &Windowed{threshold: threshold, maxStreak: maxStreak, minRecall: math.Inf(1)}
}

// Add feeds one round's recall reading.
func (w *Windowed) Add(recall float64) {
	w.rounds++
	if recall < w.minRecall {
		w.minRecall = recall
	}
	if recall < w.threshold {
		w.cur++
		if w.cur > w.worst {
			w.worst = w.cur
		}
		if w.cur == w.maxStreak+1 {
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

// OK reports whether the gate has held so far.
func (w *Windowed) OK() bool { return w.breaches == 0 }
