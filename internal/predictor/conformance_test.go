package predictor_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"blbp/internal/btb"
	"blbp/internal/cascaded"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/ittage"
	"blbp/internal/predictor"
	"blbp/internal/runspec"
	"blbp/internal/sim"
	"blbp/internal/targetcache"
	"blbp/internal/trace"
	"blbp/internal/wspec"
)

// conformance exercises the predictor.Indirect contract uniformly across
// every implementation in the repository, plus the registry contract that
// every catalog entry's configuration round-trips through JSON.

func implementations() map[string]func() predictor.Indirect {
	return map[string]func() predictor.Indirect{
		"blbp": func() predictor.Indirect { return core.New(core.DefaultConfig()) },
		"blbp-hier": func() predictor.Indirect {
			cfg := core.DefaultConfig()
			cfg.UseHierarchicalIBTB = true
			return core.New(cfg)
		},
		"ittage":      func() predictor.Indirect { return ittage.New(ittage.DefaultConfig()) },
		"btb":         func() predictor.Indirect { return btb.NewIndirect(btb.Default32K()) },
		"targetcache": func() predictor.Indirect { return targetcache.New(targetcache.DefaultConfig()) },
		"cascaded":    func() predictor.Indirect { return cascaded.New(cascaded.DefaultConfig()) },
	}
}

// drive runs a standardized random-but-seeded event stream through p and
// returns the sequence of predictions for comparison.
func drive(p predictor.Indirect, seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, 0, n)
	targets := []uint64{0x1000, 0x3000, 0x5000, 0x9000}
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			p.OnCond(uint64(0xC00+rng.Intn(4)*4), rng.Intn(2) == 0)
		case 1:
			p.OnOther(0xD00, 0xE00, trace.Return)
		default:
			pc := uint64(0x100 + rng.Intn(3)*0x40)
			pred, ok := p.Predict(pc)
			if !ok {
				pred = ^uint64(0)
			}
			out = append(out, pred)
			p.Update(pc, targets[rng.Intn(len(targets))])
		}
	}
	return out
}

func TestConformanceDeterminism(t *testing.T) {
	for name, make := range implementations() {
		t.Run(name, func(t *testing.T) {
			a := drive(make(), 42, 3000)
			b := drive(make(), 42, 3000)
			if len(a) != len(b) {
				t.Fatal("lengths differ")
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("prediction %d differs between identical runs", i)
				}
			}
		})
	}
}

func TestConformanceMonomorphicConvergence(t *testing.T) {
	for name, make := range implementations() {
		t.Run(name, func(t *testing.T) {
			p := make()
			mis := 0
			for i := 0; i < 300; i++ {
				pred, ok := p.Predict(0x4000)
				if (!ok || pred != 0xBEEF0) && i >= 50 {
					mis++
				}
				p.Update(0x4000, 0xBEEF0)
			}
			if mis != 0 {
				t.Errorf("%d late mispredicts on a monomorphic branch", mis)
			}
		})
	}
}

func TestConformanceColdMiss(t *testing.T) {
	for name, make := range implementations() {
		t.Run(name, func(t *testing.T) {
			if _, ok := make().Predict(0x777000); ok {
				t.Error("prediction claimed on a never-seen branch")
			}
		})
	}
}

func TestConformanceUpdateFirstIsSafe(t *testing.T) {
	for name, make := range implementations() {
		t.Run(name, func(t *testing.T) {
			p := make()
			for i := 0; i < 50; i++ {
				p.Update(0x900, 0x123400)
			}
			pred, ok := p.Predict(0x900)
			if !ok || pred != 0x123400 {
				t.Errorf("Predict = %#x/%v after update-only stream", pred, ok)
			}
		})
	}
}

func TestConformanceMetadata(t *testing.T) {
	for name, make := range implementations() {
		t.Run(name, func(t *testing.T) {
			p := make()
			if p.Name() == "" {
				t.Error("empty Name")
			}
			if p.StorageBits() <= 0 {
				t.Error("non-positive StorageBits")
			}
		})
	}
}

// buildAny constructs an instance of e under cfg regardless of the entry's
// kind, supplying a default hashed-perceptron conditional predictor where
// one is required, and returns the instance plus its storage budget (the
// provider's budget for consolidated predictors, matching how the plan
// layer accounts for them).
func buildAny(t *testing.T, e predictor.Entry, cfg any) (predictor.Indirect, int) {
	t.Helper()
	switch e.Kind() {
	case "standalone":
		p, err := e.New(cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", e.Name, err)
		}
		return p, p.StorageBits()
	case "cond-bound":
		p, err := e.NewBound(cfg, cond.NewHashedPerceptron(cond.DefaultHPConfig()))
		if err != nil {
			t.Fatalf("%s: NewBound: %v", e.Name, err)
		}
		return p, p.StorageBits()
	case "consolidated":
		cp, p, err := e.NewProvider(cfg)
		if err != nil {
			t.Fatalf("%s: NewProvider: %v", e.Name, err)
		}
		return p, cp.StorageBits()
	}
	t.Fatalf("%s: unknown kind %q", e.Name, e.Kind())
	return nil, 0
}

// TestCatalogDefaultConfigsRoundTrip is the registry conformance gate:
// every catalog predictor's default configuration must survive a JSON
// round trip (Config(DefaultJSON()) yielding an equal value), and an
// instance built from the round-tripped config must model the same
// hardware budget and report the expected result name. Entries registered
// by other tests (prefix "test-") are not part of the catalog contract.
func TestCatalogDefaultConfigsRoundTrip(t *testing.T) {
	n := 0
	for _, e := range predictor.Entries() {
		if strings.HasPrefix(e.Name, "test-") {
			continue
		}
		n++
		def, err := e.Config(nil)
		if err != nil {
			t.Errorf("%s: default config invalid: %v", e.Name, err)
			continue
		}
		rt, err := e.Config(e.DefaultJSON())
		if err != nil {
			t.Errorf("%s: default config does not re-decode: %v", e.Name, err)
			continue
		}
		if !reflect.DeepEqual(def, rt) {
			t.Errorf("%s: config changed across JSON round trip:\n  default: %+v\n  decoded: %+v", e.Name, def, rt)
			continue
		}
		pd, bitsDef := buildAny(t, e, def)
		prt, bitsRT := buildAny(t, e, rt)
		if bitsDef != bitsRT {
			t.Errorf("%s: StorageBits %d after round trip, want %d", e.Name, bitsRT, bitsDef)
		}
		if bitsDef <= 0 {
			t.Errorf("%s: non-positive storage budget %d", e.Name, bitsDef)
		}
		if pd.Name() != e.Name || prt.Name() != e.Name {
			t.Errorf("%s: instance names %q/%q, want the registry name", e.Name, pd.Name(), prt.Name())
		}
	}
	if n < 8 {
		t.Errorf("catalog has %d entries, want at least the 8 registered predictors", n)
	}
}

func TestConformanceStressNoPanic(t *testing.T) {
	// A hostile stream: extreme addresses, alternating histories, dense
	// polymorphism. Nothing should panic and capacity bounds must hold.
	for name, make := range implementations() {
		t.Run(name, func(t *testing.T) {
			p := make()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 20000; i++ {
				pc := rng.Uint64()
				if rng.Intn(3) == 0 {
					p.OnCond(pc, rng.Intn(2) == 0)
					continue
				}
				p.Predict(pc)
				p.Update(pc, rng.Uint64())
			}
		})
	}
}

// resetter is a predictor that restores its freshly constructed state in
// place (runspec recycles a pass's predictors through it).
type resetter interface{ Reset() }

// nopIndirect is the indirect side of a run that exercises only the
// conditional predictor.
type nopIndirect struct{}

func (nopIndirect) Name() string                             { return "nop" }
func (nopIndirect) Predict(uint64) (uint64, bool)            { return 0, false }
func (nopIndirect) Update(uint64, uint64)                    {}
func (nopIndirect) OnCond(uint64, bool)                      {}
func (nopIndirect) OnOther(uint64, uint64, trace.BranchType) {}
func (nopIndirect) StorageBits() int                         { return 1 }

// condSubstrates builds each conditional substrate run plans can name, at
// its default configuration.
var condSubstrates = map[string]func() cond.Predictor{
	"hashed-perceptron": func() cond.Predictor { return cond.NewHashedPerceptron(cond.DefaultHPConfig()) },
	"tage":              func() cond.Predictor { return cond.NewTAGE(cond.DefaultTAGEConfig()) },
}

// resetCase is one predictor under the Reset ≡ New contract. build
// returns a fresh instance as an engine pairing; a nil half is not under
// test and every run gets a stand-in: a fresh hashed perceptron for a
// standalone indirect predictor, nopIndirect for a conditional substrate.
// A cond-bound or consolidated entry returns both halves, since they share
// state.
type resetCase struct {
	name  string
	build func() (cond.Predictor, predictor.Indirect)
}

// members returns the non-nil halves: what Reset must restore.
func members(cp cond.Predictor, ip predictor.Indirect) []any {
	var out []any
	if cp != nil {
		out = append(out, cp)
	}
	if ip != nil {
		out = append(out, ip)
	}
	return out
}

// resetCases covers every catalog entry (plus the hierarchical-IBTB BLBP
// configuration) and every conditional substrate.
func resetCases(t *testing.T) []resetCase {
	var cases []resetCase
	add := func(name, typ string, overrides []byte) {
		e, ok := predictor.Lookup(typ)
		if !ok {
			t.Fatalf("%s is not registered", typ)
		}
		cfg, err := e.Config(overrides)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, resetCase{name: name, build: func() (cond.Predictor, predictor.Indirect) {
			switch e.Kind() {
			case "standalone":
				p, err := e.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return nil, p
			case "cond-bound":
				cp := condSubstrates["hashed-perceptron"]()
				p, err := e.NewBound(cfg, cp)
				if err != nil {
					t.Fatal(err)
				}
				return cp, p
			}
			cp, p, err := e.NewProvider(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return cp, p
		}})
	}
	for _, e := range predictor.Entries() {
		if !strings.HasPrefix(e.Name, "test-") {
			add(e.Name, e.Name, nil)
		}
	}
	add("blbp-hier", "blbp", []byte(`{"UseHierarchicalIBTB": true}`))

	subs := make([]string, 0, len(condSubstrates))
	for name := range condSubstrates {
		subs = append(subs, name)
	}
	sort.Strings(subs)
	registered := runspec.CondNames()
	sort.Strings(registered)
	if !reflect.DeepEqual(subs, registered) {
		t.Fatalf("condSubstrates covers %v, run plans register %v", subs, registered)
	}
	for _, name := range subs {
		build := condSubstrates[name]
		cases = append(cases, resetCase{
			name:  "cond/" + name,
			build: func() (cond.Predictor, predictor.Indirect) { return build(), nil },
		})
	}
	return cases
}

// encodeState returns v's snapshot bytes, or nil when v is no Snapshotter.
func encodeState(t *testing.T, v any) []byte {
	t.Helper()
	s, ok := predictor.AsSnapshotter(v)
	if !ok {
		return nil
	}
	var buf bytes.Buffer
	if err := s.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResetMatchesNew is the Reset ≡ New contract behind predictor-set
// recycling in run plans: an instance that ran a trace and was Reset must
// give the same sim.Result on that trace again as a freshly built instance
// run beside it, and every Snapshotter member must encode, right after
// Reset, the same bytes as a fresh one. Rerunning the same trace is what
// exposes learned state a Reset leaves behind: a stale table entry hits
// there, where another workload's addresses would miss it. Run plans give
// every pass its predictors this way, so every case must have Reset.
func TestResetMatchesNew(t *testing.T) {
	var tr *trace.Columns
	for _, sp := range wspec.Suite(100_000) {
		if sp.Name == "400.perlbench-1" {
			tr = sp.Build()
		}
	}
	if tr == nil {
		t.Fatal("suite lacks the workload the test runs")
	}
	run := func(t *testing.T, cols *trace.Columns, cp cond.Predictor, ip predictor.Indirect) sim.Result {
		t.Helper()
		if cp == nil {
			cp = condSubstrates["hashed-perceptron"]()
		}
		if ip == nil {
			ip = nopIndirect{}
		}
		res, err := sim.Run(cols, cp, []predictor.Indirect{ip}, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	var tested []string
	for _, c := range resetCases(t) {
		cp, ip := c.build()
		ms := members(cp, ip)
		tested = append(tested, c.name)
		t.Run(c.name, func(t *testing.T) {
			freshCP, freshIP := c.build()
			fresh := members(freshCP, freshIP)
			run(t, tr, cp, ip)
			for i, m := range ms {
				if b := encodeState(t, m); b != nil && bytes.Equal(b, encodeState(t, fresh[i])) {
					t.Fatalf("%T: the trace left its snapshot unchanged; the test proves nothing", m)
				}
			}
			for _, m := range ms {
				r, ok := m.(resetter)
				if !ok {
					t.Fatalf("%T has no Reset", m)
				}
				r.Reset()
			}
			for i, m := range ms {
				if !bytes.Equal(encodeState(t, m), encodeState(t, fresh[i])) {
					t.Errorf("%T: snapshot after Reset differs from a fresh instance's", m)
				}
			}
			got := run(t, tr, cp, ip)
			want := run(t, tr, freshCP, freshIP)
			if got != want {
				t.Errorf("the trace again after Reset:\n got %+v\nwant %+v", got, want)
			}
		})
	}
	want := []string{
		"blbp", "btb", "btb2bit", "cascaded", "combined", "ittage", "targetcache", "vpc",
		"blbp-hier", "cond/hashed-perceptron", "cond/tage",
	}
	if !reflect.DeepEqual(tested, want) {
		t.Errorf("cases: %v, want %v", tested, want)
	}
}
