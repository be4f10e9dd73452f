package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// with fewer, one slow sample moves the figure.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, which it sorts in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples: ceil(p*n/100), clamped to [1, n]. Multiplying first keeps
// whole percentiles of whole counts exact.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest whole percentile of n samples
// that has at least minTail samples beyond it, or 0 when even the
// median has fewer.
func tailPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		if n-rank(n, float64(p)) >= minTail {
			return p
		}
	}
	return 0
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoopLatency is the latency of a frame that was due at due and
// finished at done: timed from the due time, it includes any wait the
// frame spent behind a late generator or a stalled predecessor.
func openLoopLatency(due, done time.Duration) time.Duration { return done - due }

// lateness is how late the generator sent a frame due at due; a send
// ahead of time counts as on time.
func lateness(due, sent time.Duration) time.Duration {
	if sent < due {
		return 0
	}
	return sent - due
}

// interval is a half-open time span [Start, End).
type interval struct{ Start, End time.Duration }

// selfTime is the parent's duration minus the part of it the children
// cover. Children are clipped to the parent and overlaps between them
// are counted once.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	covered := time.Duration(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// residual is the time of a span that its replayed parts do not
// account for. The parts ran separately (a replay), not inside the
// span, so their durations are summed rather than overlapped. The
// result may be negative when replays ran slower than the original.
func residual(total time.Duration, parts ...time.Duration) time.Duration {
	for _, p := range parts {
		total -= p
	}
	return total
}

// ratio is a share reported together with its base.
type ratio struct{ Num, Den int }

// Value is Num/Den, or 0 when there is no base; String shows the base.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

func (r ratio) String() string { return fmt.Sprintf("%.4f (%d/%d)", r.Value(), r.Num, r.Den) }
