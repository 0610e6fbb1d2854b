package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// the nearest-rank rule, and how many samples lie strictly beyond it.
// Samples are exact values, never buckets, so two runs can be compared to
// any precision the clock gives.
func percentile[T int64 | float64](sorted []T, q float64) (v T, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = min(max(rank, 0), len(sorted)-1)
	return sorted[rank], len(sorted) - 1 - rank
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vals, interpolating
// linearly between the two nearest ranks. It does not reorder vals.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median returns the median of vals (the mean of the two middle values
// for an even count). It does not reorder vals.
func median(vals []float64) float64 { return quantile(vals, 0.5) }

// spread is one reported value with the range its rounds covered.
type spread struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// medianSpread reduces per-round values to their median, min and max.
func medianSpread(vals []float64) spread {
	if len(vals) == 0 {
		return spread{}
	}
	return spread{Value: median(vals), Min: slices.Min(vals), Max: slices.Max(vals)}
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// timeMedianNs times fn (which runs iters operations) reps times and
// returns the median cost of one operation in nanoseconds.
func timeMedianNs(reps, iters int, fn func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		fn()
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(per)
}

// sampler collects one worker's exact per-operation latencies, and
// remembers where each time slice of the measured phase begins among
// them, so that rates and percentiles can be taken per slice. A run's
// value is then a quartile over its slices (report.go, overSlices), which
// seconds of interference from the host's other tenants cannot move.
type sampler struct {
	lat   []int64       // latency of each completed operation, ns
	marks []int         // marks[k] is len(lat) when slice k began
	next  time.Time     // when the next slice begins
	every time.Duration // slice length
}

func newSampler(start time.Time, every time.Duration, capacity int) sampler {
	return sampler{lat: make([]int64, 0, capacity), marks: []int{0}, next: start.Add(every), every: every}
}

// roll opens every slice that has begun by now.
func (s *sampler) roll(now time.Time) {
	for !now.Before(s.next) {
		s.marks = append(s.marks, len(s.lat))
		s.next = s.next.Add(s.every)
	}
}

// add records an operation that completed at end after latency ns.
func (s *sampler) add(end time.Time, latency int64) {
	s.roll(end)
	s.lat = append(s.lat, latency)
}

// slice returns the samples of slice k, nil if the slice never closed.
func (s *sampler) slice(k int) []int64 {
	if k+1 >= len(s.marks) {
		return nil
	}
	return s.lat[s.marks[k]:s.marks[k+1]]
}
