package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// tiny returns options that run a workload in well under a second, its
// spill directories under a test directory.
func tiny(t *testing.T, workload string, trace bool) *options {
	t.Setenv("TMPDIR", t.TempDir())
	return &options{
		workload: workload, seed: defaultSeed, seconds: 1, trace: trace, reps: 1,
		base: 20_000, root: "..", rounds: 2, events: 512,
	}
}

// spec mirrors BENCHMARK.json; decoding rejects unknown keys.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBenchmarkDefinition checks BENCHMARK.json against the metrics the
// code emits and the limits the definition must respect.
func TestBenchmarkDefinition(t *testing.T) {
	s := readSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 || len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(s.EndToEnd), len(s.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for i, w := range s.Workloads {
		name(w.Name)
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q; the code runs %v", i, w.Name, workloadNames())
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the code runs %d", len(s.Workloads), len(workloads))
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code emits %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			name(got[i].name)
			if !unitRE.MatchString(got[i].unit) {
				t.Errorf("%s: bad unit %q", got[i].name, got[i].unit)
			}
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, the code emits %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	setup := false
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range s.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	check("end_to_end", e2e, e2eMetrics)
	check("per_layer", layer, layerMetrics)
}

// TestWorkloadsSmoke runs every workload untraced and traced at a tiny
// scale: every metric is emitted with its unit and every check passes.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rep, err := runWorker(tiny(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			for _, d := range want {
				m, ok := rep.Line.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
			}
			if len(rep.Line.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w, trace, len(rep.Line.Metrics), len(want))
			}
			if !rep.Line.Correct || rep.Line.Failed != 0 || rep.Line.Attempted < 1 {
				t.Errorf("%s trace=%t: %d of %d checks failed (first: %s)", w, trace, rep.Line.Failed, rep.Line.Attempted, rep.FirstFailure)
			}
		}
	}
}

// TestTracedMatchesUntraced replays a plan workload under the ledger: each
// (trace, predictor) result is checked against the untraced repetition,
// and the traced mispredict counts equal the untraced ones.
func TestTracedMatchesUntraced(t *testing.T) {
	b := newPlanBench(tiny(t, "headline_cold", true), modeCold)
	defer b.close()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.rep(); err != nil {
		t.Fatal(err)
	}
	before := b.chk.attempted
	l := newLedger(calibrate())
	if _, err := b.traced(l); err != nil {
		t.Fatal(err)
	}
	pairs, mis := 0, map[string]float64{}
	for _, preds := range b.untraced {
		for name, r := range preds {
			pairs++
			mis[name] += float64(r.IndirectMispredicts)
		}
	}
	if got := b.chk.attempted - before; got != pairs || pairs == 0 || b.chk.failed != 0 {
		t.Errorf("%d of %d results checked, %d failed (%s)", got, pairs, b.chk.failed, b.chk.firstFailure)
	}
	for kind := range kindStage {
		if got := l.layers[kind+".mispredicts"]; got != mis[kind] || got == 0 {
			t.Errorf("%s: traced %v mispredicts, untraced %v", kind, got, mis[kind])
		}
	}
}

// TestTamperedExpectation is the negative case: with one byte of an
// expected table changed, the run reports failed checks.
func TestTamperedExpectation(t *testing.T) {
	ref := newPlanBench(tiny(t, "headline_cold", false), modeCold)
	if err := ref.setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.rep(); err != nil {
		t.Fatal(err)
	}
	ref.close()
	dir := t.TempDir()
	for file, data := range ref.first {
		if err := os.WriteFile(filepath.Join(dir, file+".csv"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tamper := range []bool{false, true} {
		if tamper {
			path := filepath.Join(dir, "overall.csv")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-2] ^= 1
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		o := tiny(t, "headline_cold", false)
		o.expect = dir
		rep, err := runWorker(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Line.Failed > 0; got != tamper {
			t.Errorf("tampered=%t: %d of %d checks failed", tamper, rep.Line.Failed, rep.Line.Attempted)
		}
	}
}

// TestQuartiles pins the cut points to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 5}, 0, 3, 6},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestVerdict covers the comparison rule's outcomes, lower being better.
func TestVerdict(t *testing.T) {
	pairs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	// narrow has a quartile spread of 0.2 around 10, wide of 2.
	narrow := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	wide := []float64{9, 11, 9, 11, 9, 11, 9, 11, 9, 11}
	shift := func(a []float64, d float64) []float64 {
		out := make([]float64, len(a))
		for i, v := range a {
			out[i] = v + d
		}
		return out
	}
	same := func(v float64) []float64 { return shift(make([]float64, len(pairs)), v) }
	for _, c := range []struct {
		name         string
		a, b         []float64
		bound, floor float64
		want         string
	}{
		{"gain beyond the spread", narrow, shift(narrow, -2), 0.08, 0, "better"},
		{"regression beyond the bound", narrow, shift(narrow, 2), 0.08, 0, "worse"},
		{"small shift", narrow, shift(narrow, 0.05), 0.08, 0, "unchanged"},
		{"spread beyond the bound", narrow, shift(narrow, 0.005), 0.001, 0, "unresolved"},
		// Every B run beats every A run, but by less than A's spread: no
		// gain, and no regression either.
		{"all runs better, within the spread", wide, same(8.9), 0.08, 0, "unchanged"},
		{"regression beyond the bound, wide spread", wide, same(12), 0.08, 0, "worse"},
		{"shift within the bound, wide spread", wide, same(10.5), 0.08, 0, "unresolved"},
		{"regression within the floor", narrow, shift(narrow, 0.5), 0.01, 1, "unchanged"},
		{"regression beyond the floor", narrow, shift(narrow, 1.5), 0.01, 1, "worse"},
	} {
		if got := verdict(c.a, c.b, pairs, pairs, false, c.bound, c.floor).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
