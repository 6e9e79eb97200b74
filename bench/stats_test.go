package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"iuad/internal/eval"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {19, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if beyond := tc.n - int(math.Ceil(got*float64(tc.n))); got > 0.5 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves only %d samples beyond it", tc.n, got, beyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}.sorted()
	for q, want := range map[float64]float64{0: 1, 0.2: 1, 0.5: 3, 0.8: 4, 0.81: 5, 1: 5} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 3 {
		t.Errorf("median = %g, want 3 (nearest rank takes the lower middle)", got)
	}
}

func TestFasterHalf(t *testing.T) {
	for _, tc := range []struct {
		v           []float64
		lower, high float64 // the better half when lower is better, when higher is
	}{
		{nil, 0, 0},
		{[]float64{7}, 7, 7},
		{[]float64{9, 1}, 1, 9},
		{[]float64{100, 2, 1, 3}, 1.5, 51.5},
		{[]float64{5, 1, 2, 3, 1000}, 2, 336}, // three of five: the middle one counts on either side
	} {
		if got := fasterHalf(tc.v, true); math.Abs(got-tc.lower) > 1e-12 {
			t.Errorf("fasterHalf(%v, lower is better) = %g, want %g", tc.v, got, tc.lower)
		}
		if got := fasterHalf(tc.v, false); math.Abs(got-tc.high) > 1e-12 {
			t.Errorf("fasterHalf(%v, higher is better) = %g, want %g", tc.v, got, tc.high)
		}
	}
}

func TestWindows(t *testing.T) {
	at := func(ms int, v float64) timed { return timed{at: time.Duration(ms) * time.Millisecond, ms: v} }
	ts := []timed{at(0, 1), at(99, 2), at(100, 3), at(250, 4), at(299, 5), at(300, 6), at(420, 7)}
	got := windows(ts, 300*time.Millisecond, 100*time.Millisecond)
	want := []samples{{1, 2}, {3}, {4, 5, 6, 7}} // past the deadline: the last window
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windows = %v, want %v", got, want)
	}
	if got := windows(ts[:2], 40*time.Millisecond, 100*time.Millisecond); len(got) != 1 || len(got[0]) != 2 {
		t.Errorf("a slice shorter than a window: %v, want one window of two", got)
	}
	if got := windows(nil, 250*time.Millisecond, 100*time.Millisecond); len(got) != 2 {
		t.Errorf("250ms in windows of 100ms: %d windows, want 2", len(got))
	}
}

// The bench scores with its own code; it has to agree with the product's
// evaluator on the same clustering.
func TestF1AgreesWithEval(t *testing.T) {
	in, err := generate(3, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	// A clustering that is neither perfect nor trivial: split every true
	// author in two by paper parity, and merge two authors per name.
	byName := map[string][]instance{}
	evalByName := map[string][]eval.Instance{}
	for _, s := range in.ambiguous {
		cluster := (s.truth/2)*2*2 + s.paper%2
		byName[s.name] = append(byName[s.name], instance{cluster: cluster, truth: s.truth})
		evalByName[s.name] = append(evalByName[s.name], eval.Instance{Cluster: cluster, Truth: s.truth})
	}
	if len(byName) < 5 {
		t.Fatalf("only %d ambiguous names in the 2,000-paper corpus", len(byName))
	}
	var mine pairCounts
	var theirs eval.PairCounts
	for name := range byName {
		mine.addName(byName[name])
		theirs.AddName(evalByName[name])
	}
	want := theirs.Metrics().MicroF
	if got := mine.f1(); math.Abs(got-want) > 1e-12 || got <= 0 || got >= 1 {
		t.Errorf("bench F1 %.12f, internal/eval MicroF %.12f (want equal, strictly between 0 and 1)", got, want)
	}
	if mine.tp != theirs.TP || mine.samePred != theirs.TP+theirs.FP || mine.sameTruth != theirs.TP+theirs.FN {
		t.Errorf("pair counts differ: bench %+v, eval %+v", mine, theirs)
	}
}
