package main

import (
	"testing"
	"time"

	"advdet/internal/synth"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(append([]float64(nil), xs...), tc.p); got != tc.want {
			t.Errorf("p%v of 1..200 = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{19, 0},    // even the median has only 9 beyond it
		{20, 50},   // rank 10, 10 beyond
		{100, 90},  // rank 90, 10 beyond; p91 leaves 9
		{199, 94},  // p95 would be rank 190 with 9 beyond
		{200, 95},  // the run length p95 needs
		{432, 97},  // rank 420, 12 beyond; p98 leaves 8
		{1000, 99}, // capped at p99
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && tc.n-rank(tc.n, float64(p)) < minTail {
			t.Errorf("n=%d: p%d has fewer than %d samples beyond it", tc.n, p, minTail)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	ms := time.Millisecond
	// A frame due at 100 ms, sent 30 ms late behind a stalled
	// predecessor, finishing 10 ms after it was sent: the latency
	// counts the stall.
	due, sent, done := 100*ms, 130*ms, 140*ms
	if got := openLoopLatency(due, done); got != 40*ms {
		t.Errorf("latency = %v, want 40ms", got)
	}
	if got := lateness(due, sent); got != 30*ms {
		t.Errorf("lateness = %v, want 30ms", got)
	}
	if got := lateness(due, 99*ms); got != 0 {
		t.Errorf("early send lateness = %v, want 0", got)
	}
}

func TestScheduleKeepsEachFrameInItsPeriod(t *testing.T) {
	const rate = 10
	period := time.Second / rate
	a := schedule(50, rate, synth.NewRNG(7))
	b := schedule(50, rate, synth.NewRNG(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("due[%d] differs for the same seed: %v vs %v", i, a[i], b[i])
		}
		if lo := time.Duration(i) * period; a[i] < lo || a[i] >= lo+period {
			t.Errorf("due[%d] = %v, outside [%v, %v)", i, a[i], lo, lo+period)
		}
	}
}

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	iv := func(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []interval{iv(10, 40)}, 70},
		{"disjoint", []interval{iv(60, 70), iv(10, 40)}, 60},
		{"overlap counted once", []interval{iv(10, 40), iv(30, 50)}, 60},
		{"nested", []interval{iv(10, 90), iv(20, 30)}, 20},
		{"clipped to parent", []interval{iv(-20, 10), iv(90, 130)}, 80},
		{"outside", []interval{iv(200, 300)}, 100},
	} {
		if got := selfTime(iv(0, 100), tc.children); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestResidualSumsReplayedParts(t *testing.T) {
	if got := residual(20*time.Millisecond, 5*time.Millisecond, 7*time.Millisecond, time.Millisecond); got != 7*time.Millisecond {
		t.Errorf("residual = %v, want 7ms", got)
	}
	// Replays slower than the span leave a negative residual rather
	// than a clamped zero, so the error shows.
	if got := residual(time.Millisecond, 2*time.Millisecond); got != -time.Millisecond {
		t.Errorf("residual = %v, want -1ms", got)
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := ratio{Num: 3, Den: 12}
	if r.Value() != 0.25 || r.String() != "0.2500 (3/12)" {
		t.Errorf("ratio 3/12 = %v %q", r.Value(), r.String())
	}
	empty := ratio{}
	if empty.Value() != 0 || empty.String() != "0.0000 (0/0)" {
		t.Errorf("empty ratio = %v %q", empty.Value(), empty.String())
	}
}
