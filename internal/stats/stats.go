// Package stats provides the small numeric summaries the experiment drivers
// report: means, extrema, percent changes, and storage sizes in kilobytes.
package stats

import "fmt"

// Mean returns the arithmetic mean of xs (0 for an empty slice), the
// aggregation the paper uses for suite MPKI.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the smallest element (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// PercentChange returns 100·(from−to)/from — the "% reduction" convention
// of the paper's Fig. 10 (positive = improvement of to over from).
func PercentChange(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return 100 * (from - to) / from
}

// FormatKB renders a bit count as kilobytes with two decimals.
func FormatKB(bits int) string {
	return fmt.Sprintf("%.2f KB", float64(bits)/8192)
}
