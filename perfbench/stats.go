package main

import (
	"math"
	"slices"
)

// percentile returns the exact nearest-rank q-quantile (0 < q <= 1) of
// the samples: the smallest sample with at least q·n samples at or below
// it, i.e. sorted[ceil(q·n)-1]. There is no interpolation, so the value
// is always one of the raw samples. It returns NaN for no samples. The
// input is not modified.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median is the 0.5 nearest-rank percentile: the lower middle sample for
// an even count.
func median(samples []float64) float64 { return percentile(samples, 0.5) }

// sum adds the samples.
func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

// inf is a latency miss: a failed, refused or never-sent request.
var inf = math.Inf(1)

// finite maps a value that is not finite (a percentile that landed on a
// miss, or one of no samples) to -1, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// iqMean is the interquartile mean: the mean of the middle half of the
// sorted values (all of them when there are fewer than 4). Unlike the
// median it moves smoothly when the values are a mixture of a fast and a
// slow mode, and unlike the mean it ignores stalls at either end.
func iqMean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := slices.Clone(values)
	slices.Sort(s)
	cut := len(s) / 4
	return sum(s[cut:len(s)-cut]) / float64(len(s)-2*cut)
}

// windowed splits samples, in the order they were taken, into
// consecutive windows of size (the last one absorbs a short remainder),
// applies stat to each window, and returns the interquartile mean of the
// results: a run's typical value, which a transient stall of the machine
// barely moves. Fewer than size samples make one window.
func windowed(samples []float64, size int, stat func([]float64) float64) float64 {
	n := max(1, len(samples)/size)
	per := make([]float64, n)
	for i := range n {
		end := (i + 1) * size
		if i == n-1 {
			end = len(samples)
		}
		per[i] = stat(samples[i*size : end])
	}
	return iqMean(per)
}
