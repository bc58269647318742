package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the two closest ranks, the same rule as
// numpy's default. xs is not modified; an empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := float64(len(s)-1) * p / 100
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// openLoopLatency is one open-loop request's latency, corrected for
// coordinated omission: it counts from the time the schedule said the
// request was due, not from when the generator got round to sending it.
// The request was sent at sent and acknowledged at acked; the daemon
// reported elapsed between admitting the session and its verdict.
// Admission happens no earlier than sent, so the verdict exists no
// earlier than sent+elapsed, and the client cannot hold it before the
// acknowledgement arrives.
func openLoopLatency(due, sent, acked time.Time, elapsed time.Duration) time.Duration {
	verdict := sent.Add(elapsed)
	if acked.After(verdict) {
		verdict = acked
	}
	return verdict.Sub(due)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowedPercentile is the median, over the windows named in win, of
// each window's p-th percentile of xs.
func windowedPercentile(xs []float64, win []int, p float64) float64 {
	byWin := map[int][]float64{}
	for i, x := range xs {
		byWin[win[i]] = append(byWin[win[i]], x)
	}
	var per []float64
	for _, v := range byWin {
		per = append(per, percentile(v, p))
	}
	return median(per)
}
