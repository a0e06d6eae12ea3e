package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// values; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// perWindow cuts [from, from+span) into n equal windows by due time and
// returns each non-empty window's p-quantile.
func perWindow(due []time.Duration, latMs []float64, from, span time.Duration, n int, p float64) []float64 {
	windows := make([][]float64, n)
	for i, d := range due {
		w := int((d - from) * time.Duration(n) / span)
		if d < from || w < 0 || w >= n {
			continue
		}
		windows[w] = append(windows[w], latMs[i])
	}
	qs := make([]float64, 0, n)
	for _, w := range windows {
		if len(w) > 0 {
			sort.Float64s(w)
			qs = append(qs, percentile(w, p))
		}
	}
	return qs
}

// perWindowRate cuts [0, span) into n equal windows and returns the events
// per second in each.
func perWindowRate(at []time.Duration, span time.Duration, n int) []float64 {
	rates := make([]float64, n)
	for _, t := range at {
		if w := int(t * time.Duration(n) / span); t >= 0 && w < n {
			rates[w] += float64(n) / span.Seconds()
		}
	}
	return rates
}

// quietest is the statistic every windowed metric reports: the value of the
// window at the best quarter mark, counted from the good end (the fourth
// lowest of 15 latencies, the lowest of 3, the fifth highest of 20 rates).
// The host's noise is one-sided: a neighbour's burst or a stolen CPU only
// ever makes a window slower, so the better windows are the ones that show
// the program, and a cost that recurs in every window (per-epoch work, the
// mix's own tail) is in them too.
func quietest(values []float64, higherIsBetter bool) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	i := (len(s) - 1) / 4
	if higherIsBetter {
		i = len(s) - 1 - i
	}
	return s[i]
}

// share is part/whole, 0 when whole is 0.
func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartileSpread is the distance between the first and third quartile of
// values as a share of their median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (exclusive method). It needs at least
// two values.
func quartileSpread(values []float64) (med, q1, q3, spread float64) {
	s := sortedCopy(values)
	n := len(s)
	med = median(s)
	if n < 2 {
		return med, med, med, 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	q1, q3 = q(1), q(3)
	if med != 0 {
		spread = (q3 - q1) / math.Abs(med)
	}
	return med, q1, q3, spread
}
