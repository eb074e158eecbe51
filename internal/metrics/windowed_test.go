package metrics

import "testing"

func TestWindowedGate(t *testing.T) {
	w := NewWindowed(0.95, 3)
	for _, r := range []float64{1, 1, 0.9, 0.9, 0.9, 1, 0.9, 1} {
		w.Add(r)
	}
	if !w.OK() || w.Worst() != 3 || w.Breaches() != 0 {
		t.Fatalf("streak of 3 within budget 3 should pass: worst=%d breaches=%d", w.Worst(), w.Breaches())
	}
	for _, r := range []float64{0.9, 0.9, 0.9, 0.9, 1} {
		w.Add(r)
	}
	if w.OK() || w.Worst() != 4 || w.Breaches() != 1 {
		t.Fatalf("streak of 4 over budget 3 should breach once: worst=%d breaches=%d", w.Worst(), w.Breaches())
	}
	if w.MinRecall() != 0.9 || w.Rounds() != 13 {
		t.Fatalf("min/rounds = %v/%d", w.MinRecall(), w.Rounds())
	}
	// A streak interrupted by an iteration boundary does not accumulate.
	w2 := NewWindowed(0.95, 2)
	w2.Add(0.9)
	w2.Add(0.9)
	w2.EndIteration()
	w2.Add(0.9)
	if !w2.OK() {
		t.Fatal("iteration boundary must reset the streak")
	}
}
