package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary is one metric over a run's repetitions: the median the contract
// line reports, plus the spread the detailed report keeps beside it.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	return summary{N: len(s), Median: med, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
}

// quartiles returns the three cut points of sorted xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match a spread computed over the
// contract lines. Fewer than two values collapse to the single value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), median(xs), cut(3)
}

// median of sorted xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// percentile returns the p-th percentile (nearest rank) of sorted xs.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	k := int(p/100*float64(len(xs))+0.5) - 1
	k = max(0, min(k, len(xs)-1))
	return xs[k]
}

// fingerprint identifies the machine and toolchain a report was measured
// on; compare refuses to set reports with different fingerprints side by
// side.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	MemMB      int64  `json:"mem_mb"`
}

func machineFingerprint() fingerprint {
	return fingerprint{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		MemMB:      memTotalMB(),
	}
}

// procField returns the value of the first "key : value" line of a /proc
// file whose key is key, or "" when the file or line is absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func memTotalMB() int64 {
	fields := strings.Fields(procField("/proc/meminfo", "MemTotal"))
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0
	}
	return kb >> 10
}

// cpuTime is the process's user+system CPU time so far, every thread
// (garbage-collector workers included).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// sample is one timed repetition.
type sample struct {
	Wall    float64 `json:"wall_s"`
	CPU     float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
}

// measure runs f as one timed repetition. A collection first makes every
// repetition start from the same heap, so the previous one's garbage is
// not billed to it.
func measure(f func() error) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return sample{
		Wall:    wall.Seconds(),
		CPU:     (c1 - c0).Seconds(),
		AllocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
	}, err
}
