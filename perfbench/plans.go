package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"blbp/internal/experiments"
	"blbp/internal/predictor"
	"blbp/internal/runspec"
	"blbp/internal/sim"
	"blbp/internal/trace"
	"blbp/internal/tracecache"
	"blbp/internal/workload"
	"blbp/internal/wspec"
)

// planMode is how a plan workload acquires its traces.
type planMode int

const (
	// modeCold: an empty cache, KeepSpill into a fresh directory, so
	// generators run and Cache.Close's durable flush is timed.
	modeCold planMode = iota
	// modeWarm: a cache preloading a spill directory written in set-up.
	modeWarm
	// modeHot: a cache that already holds every trace and its tape memo.
	modeHot
)

// planBench runs built-in run plans through runspec.Exec on a fresh
// experiments.Runner with one worker, exactly as cmd/experiments does.
type planBench struct {
	o     *options
	mode  planMode
	plans []*runspec.Plan
	chk   checks

	specs    []workload.Spec
	expect   map[string][]byte // output file -> expected CSV, from the expect directory
	first    map[string][]byte // output file -> the first repetition's CSV
	spillDir string            // warm: the directory set-up wrote
	cache    *tracecache.Cache // hot: the filled cache

	ref          *runspec.Exec                    // last untraced repetition's executor
	untraced     map[string]map[string]sim.Result // its per-(trace, predictor) results
	instr, preds float64                          // what one repetition simulates
}

func newPlanBench(o *options, mode planMode) *planBench {
	names := []string{"overall", "fig8", "fig9"}
	if mode == modeHot {
		names = []string{"fig10"}
	}
	b := &planBench{o: o, mode: mode}
	for _, n := range names {
		p, _ := runspec.Builtin(n)
		if salt := o.salt(); salt != "" {
			p.Suite.Salts = []string{salt}
		}
		b.plans = append(b.plans, p)
	}
	return b
}

func (b *planBench) checks() *checks { return &b.chk }

func (b *planBench) close() {
	if b.cache != nil {
		b.cache.Close()
	}
	if b.spillDir != "" {
		os.RemoveAll(b.spillDir)
	}
}

// setup compiles the suite, loads the expected tables, and prepares the
// mode's trace source: the warm spill directory or the hot cache.
func (b *planBench) setup() error {
	b.close()
	b.cache, b.spillDir = nil, ""
	b.specs = wspec.SuiteSeeded(b.o.base, b.o.salt())
	b.expect = map[string][]byte{}
	if dir := b.o.expectDir(); dir != "" {
		for _, p := range b.plans {
			for _, out := range p.Outputs {
				file := out.File
				if file == "" {
					file = out.Table
				}
				data, err := os.ReadFile(filepath.Join(dir, file+".csv"))
				if err != nil {
					return err
				}
				b.expect[file] = data
			}
		}
	}
	switch b.mode {
	case modeWarm:
		dir, err := os.MkdirTemp("", "perfbench-warm-")
		if err != nil {
			return err
		}
		b.spillDir = dir
		c := tracecache.New(tracecache.Config{SpillDir: dir, KeepSpill: true})
		for _, spec := range b.specs {
			c.Get(spec)
		}
		c.Close()
		st := c.Stats()
		b.chk.check(st.SpillErrors == 0 && st.Builds == int64(len(b.specs)),
			"warm set-up: %d builds, %d spill errors", st.Builds, st.SpillErrors)
	case modeHot:
		b.cache = tracecache.New(tracecache.Config{})
		for _, spec := range b.specs {
			tape, err := b.cache.Get(spec).Tape()
			if err != nil {
				return err
			}
			if _, err := tape.Run(experiments.CondKeyHP, newHP(), []predictor.Indirect{nopIndirect{}}, sim.Options{}); err != nil {
				return err
			}
		}
	}
	return nil
}

// newCache returns the trace cache one repetition starts from, and the
// directory to remove afterwards.
func (b *planBench) newCache() (*tracecache.Cache, string, error) {
	switch b.mode {
	case modeCold:
		dir, err := os.MkdirTemp("", "perfbench-cold-")
		if err != nil {
			return nil, "", err
		}
		return tracecache.New(tracecache.Config{SpillDir: dir, KeepSpill: true}), dir, nil
	case modeWarm:
		return tracecache.New(tracecache.Config{SpillDir: b.spillDir, KeepSpill: true}), "", nil
	}
	return b.cache, "", nil
}

// rep times one pass of every plan through a fresh Runner and Exec, the
// cache's Close included for the spilling modes.
func (b *planBench) rep() (sample, error) {
	var outs []runspec.RenderedOutput
	var x *runspec.Exec
	var cache *tracecache.Cache
	var dir string
	var before tracecache.Stats
	if b.mode == modeHot {
		before = b.cache.Stats()
	}
	s, err := measure(func() error {
		var err error
		if cache, dir, err = b.newCache(); err != nil {
			return err
		}
		r := experiments.NewRunnerCache(1, cache)
		x = runspec.NewExec(r, b.o.base)
		for _, p := range b.plans {
			o, err := x.Run(p)
			if err != nil {
				return err
			}
			outs = append(outs, o...)
		}
		r.Close()
		if b.mode != modeHot {
			cache.Close()
		}
		return nil
	})
	if err != nil {
		return s, err
	}
	if dir != "" {
		files, _ := filepath.Glob(filepath.Join(dir, "*.blbptrc"))
		b.chk.check(len(files) == len(b.specs), "cold flush wrote %d spill files, want %d", len(files), len(b.specs))
		os.RemoveAll(dir)
	}
	b.checkStats(cache.Stats(), before)
	b.checkOutputs(outs)
	b.ref = x
	return s, b.collectRows()
}

// checkStats checks where the repetition's traces came from.
func (b *planBench) checkStats(st, before tracecache.Stats) {
	n := int64(len(b.specs))
	switch b.mode {
	case modeCold:
		b.chk.check(st.Builds == n && st.SpillErrors == 0, "cold: %d builds, %d spill errors, want %d and 0", st.Builds, st.SpillErrors, n)
	case modeWarm:
		b.chk.check(st.Builds == 0 && st.SpillLoads == n && st.SpillErrors == 0,
			"warm: %d builds, %d spill loads, %d spill errors, want 0, %d and 0", st.Builds, st.SpillLoads, st.SpillErrors, n)
	case modeHot:
		b.chk.check(st.Builds == before.Builds && st.SpillErrors == 0, "hot: the repetition built %d traces", st.Builds-before.Builds)
	}
}

// checkOutputs compares every rendered table with the expected CSV; with
// no expected files the first repetition's tables become the reference.
func (b *planBench) checkOutputs(outs []runspec.RenderedOutput) {
	if b.first == nil {
		b.first = map[string][]byte{}
	}
	for _, out := range outs {
		var buf bytes.Buffer
		if err := out.Table.WriteCSV(&buf); err != nil {
			b.chk.check(false, "rendering %s: %v", out.File, err)
			continue
		}
		want, ok := b.expect[out.File]
		if !ok {
			if want, ok = b.first[out.File]; !ok {
				b.first[out.File] = buf.Bytes()
				continue
			}
		}
		b.chk.check(bytes.Equal(buf.Bytes(), want), "%s.csv differs from the expected table", out.File)
	}
}

// collectRows reads the repetition's per-(trace, predictor) results through
// a memo-hit "mpki" plan over the same suite and passes.
func (b *planBench) collectRows() error {
	sib := *b.plans[0]
	sib.Outputs = []runspec.Output{{Table: "mpki"}}
	outs, err := b.ref.Run(&sib)
	if err != nil {
		return err
	}
	rows, ok := outs[0].Data.([]experiments.WorkloadResult)
	if !ok {
		return fmt.Errorf("mpki output carries %T", outs[0].Data)
	}
	b.untraced = make(map[string]map[string]sim.Result, len(rows))
	b.instr, b.preds = 0, 0
	for _, row := range rows {
		b.untraced[row.Spec.Name] = row.Results
		for _, r := range row.Results {
			b.instr += float64(r.Instructions)
			b.preds += float64(r.IndirectBranches)
		}
	}
	return nil
}

// traced replays the plans' passes through the layers' public functions
// under the ledger, flushes and renders as the untraced repetition does,
// and checks the replay's counts against the untraced results.
func (b *planBench) traced(l *ledger) (int64, error) {
	passes, err := tracedPasses(b.plans)
	if err != nil {
		return 0, err
	}
	cache, dir, err := b.newCache()
	if err != nil {
		return 0, err
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	sizeBefore := dirBytes(b.spillDir)
	before := cache.Stats()

	t0 := now()
	out, err := replay(l, cache, b.specs, passes, b.mode != modeHot)
	if err != nil {
		return 0, err
	}
	st := cache.Stats()
	var flushNs float64
	if b.mode != modeHot {
		id := l.open(stageNames[stFlush])
		cache.Close()
		flushNs = float64(l.close(id))
		l.self[stFlush] += flushNs
	}
	var renderErr error
	l.timed(stRender, stageNames[stRender], func() {
		for _, p := range b.plans {
			if _, err := b.ref.Run(p); err != nil {
				renderErr = err
			}
		}
	})
	wall := now() - t0
	if renderErr != nil {
		return 0, renderErr
	}

	for name, want := range b.untraced {
		for pred, w := range want {
			got := out.results[name][pred]
			b.chk.check(got == w, "traced %s/%s: %+v, untraced %+v", name, pred, got, w)
		}
	}
	// Encoding the traces the flush wrote, to io.Discard, separates the
	// codec from the fsync/rename cost of the durable write.
	encodeShare := 0.0
	if flushNs > 0 && len(out.built) > 0 {
		t := now()
		for _, cols := range out.built {
			h := trace.SpillHeader{Name: cols.Name, Instructions: cols.Instructions()}
			if err := trace.WriteSpillColumns(io.Discard, h, cols); err != nil {
				return 0, err
			}
		}
		encodeShare = float64(now()-t) / flushNs
	}
	readMB := 0.0
	if b.mode == modeWarm {
		readMB = float64(sizeBefore) / (1 << 20)
	}
	for k, v := range map[string]float64{
		"workload.builds":               float64(st.Builds - before.Builds),
		"tracecache.spill_loads":        float64(st.SpillLoads - before.SpillLoads),
		"tracecache.spill_errors":       float64(st.SpillErrors - before.SpillErrors),
		"tracecache.live_mb":            float64(st.LiveBytes) / (1 << 20),
		"tracecache.spill_read_mb":      readMB,
		"tracecache.spill_written_mb":   float64(dirBytes(dir)+dirBytes(b.spillDir)-sizeBefore) / (1 << 20),
		"tracecache.flush_encode_share": encodeShare,
		"cond.mispredicts":              float64(out.condMis),
		"sim.records_per_segment":       float64(out.records) / float64(out.segments),
	} {
		l.layers[k] = v
	}
	for kind := range kindStage {
		l.layers[kind+".predictions"] = float64(out.predictions[kind])
		l.layers[kind+".mispredicts"] = float64(out.mispredicts[kind])
	}
	return wall, nil
}

// dirBytes totals the sizes of the spill files in dir.
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, de := range des {
		if info, err := de.Info(); err == nil && strings.HasSuffix(de.Name(), ".blbptrc") {
			n += info.Size()
		}
	}
	return n
}

func (b *planBench) extra() map[string]any {
	return map[string]any{"plans": len(b.plans), "traces": len(b.specs), "sim_instructions": b.instr, "predictions": b.preds}
}
