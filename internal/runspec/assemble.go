package runspec

import (
	"fmt"

	"blbp/internal/experiments"
	"blbp/internal/report"
	"blbp/internal/stats"
)

// Aggregate result types of the built-in outputs (the Data field of their
// RenderedOutput). They mirror the tables the paper's evaluation reports.

// Fig10Row is one ablation arm's result.
type Fig10Row struct {
	Variant string
	// MeanMPKI is the suite-mean MPKI of the variant.
	MeanMPKI float64
	// PctVsITTAGE is the percent MPKI reduction relative to ITTAGE
	// (positive = better than ITTAGE), the paper's Figure 10 y-axis.
	PctVsITTAGE float64
}

// Fig11Row is one associativity point ("ittage" labels the reference).
type Fig11Row struct {
	Label    string
	MeanMPKI float64
}

// HierarchyResult aggregates the IBTB-hierarchy experiment.
type HierarchyResult struct {
	// Mono64 is the paper's monolithic 64-way IBTB.
	Mono64MPKI float64
	// Mono8 is a monolithic 8-way IBTB at the same 4096 entries (the cheap
	// but inaccurate alternative, Fig. 11's low end).
	Mono8MPKI float64
	// Hier is the two-level L1(8-way)+L2(16-way) hierarchy.
	HierMPKI float64
	// HierL2Rate is the mean fraction of predictions whose IBTB lookup
	// probed the hierarchy's second level.
	HierL2Rate float64
}

// CottageResult aggregates the COTTAGE comparison.
type CottageResult struct {
	// HPCondAcc / TAGECondAcc are the conditional accuracies of the two
	// conditional predictors.
	HPCondAcc   float64
	TAGECondAcc float64
	// Indirect MPKI of each pairing's indirect side.
	BLBPMPKI   float64
	ITTAGEMPKI float64
}

// LatencyResult aggregates the §3.7 prediction-latency analysis.
type LatencyResult struct {
	// PctOneCycle is the fraction of predictions with <= 5 candidates
	// (one cycle at 5 parallel cosine-similarity units).
	PctOneCycle float64
	// PctWithin4 is the fraction within 4 cycles (<= 20 candidates).
	PctWithin4 float64
	// MeanCycles is the average ceil(n/5) over all predictions.
	MeanCycles float64
}

// CombinedResult aggregates the consolidation experiment.
type CombinedResult struct {
	// Dedicated: hashed perceptron for conditionals + dedicated BLBP.
	DedicatedCondAcc      float64
	DedicatedIndirectMPKI float64
	DedicatedBits         int
	// Consolidated: one BLBP structure serving both roles (§6 future work).
	ConsolidatedCondAcc      float64
	ConsolidatedIndirectMPKI float64
	ConsolidatedBits         int
}

// SeedsRow is one seed draw's headline numbers.
type SeedsRow struct {
	Salt        string
	ITTAGEMean  float64
	BLBPMean    float64
	PctVsITTAGE float64
}

// standardOrder is the paper's presentation order for the §5.1 table and
// the per-benchmark figures.
func standardOrder() []string {
	return []string{experiments.NameBTB, experiments.NameVPC, experiments.NameITTAGE, experiments.NameBLBP}
}

// meanMPKI is the suite-mean MPKI of one predictor over the rows.
func meanMPKI(rows []experiments.WorkloadResult, name string) float64 {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = r.MPKI(name)
	}
	return stats.Mean(xs)
}

func (c *OutputContext) overallData() (experiments.OverallData, error) {
	rows, err := c.rows()
	if err != nil {
		return experiments.OverallData{}, err
	}
	if err := c.requireNames(rows, standardOrder()); err != nil {
		return experiments.OverallData{}, err
	}
	return experiments.OverallData{Rows: rows, Predictors: standardOrder()}, nil
}

func init() {
	registerOutput(outputEntry{
		name: "table1", doc: "workload suite by source category (paper Table 1)",
		render: tableOnly(func(c *OutputContext) (*report.Table, any, error) {
			return experiments.Table1(c.suite()), nil, nil
		}),
	})
	registerOutput(outputEntry{
		name: "table2", doc: "predictor configurations and hardware budgets (paper Table 2)",
		render: tableOnly(func(c *OutputContext) (*report.Table, any, error) {
			return experiments.Table2(), experiments.Budgets(), nil
		}),
	})
	registerOutput(outputEntry{
		name: "fig1", doc: "branch mix per kilo-instruction (paper Figure 1)",
		render: tableOnly(func(c *OutputContext) (*report.Table, any, error) {
			tb, rows := c.exec.Runner().Fig1(c.suite())
			return tb, rows, nil
		}),
	})
	registerOutput(outputEntry{
		name: "fig6", doc: "polymorphism per workload (paper Figure 6)",
		render: tableOnly(func(c *OutputContext) (*report.Table, any, error) {
			tb, rows := c.exec.Runner().Fig6(c.suite())
			return tb, rows, nil
		}),
	})
	registerOutput(outputEntry{
		name: "fig7", doc: "target-count distribution CCDF (paper Figure 7)",
		render: tableOnly(func(c *OutputContext) (*report.Table, any, error) {
			tb, points := c.exec.Runner().Fig7(c.suite(), 64)
			return tb, points, nil
		}),
	})
	registerOutput(outputEntry{
		name: "overall", doc: "suite-mean MPKI of the four standard predictors (§5.1)",
		needsPasses: true,
		render: tableOnly(func(c *OutputContext) (*report.Table, any, error) {
			data, err := c.overallData()
			if err != nil {
				return nil, nil, err
			}
			return experiments.OverallTable(data), data, nil
		}),
	})
	registerOutput(outputEntry{
		name: "holdout", doc: "the §5.1 table over the holdout suite (CBP-4 analog)",
		needsPasses: true,
		render: tableOnly(func(c *OutputContext) (*report.Table, any, error) {
			data, err := c.overallData()
			if err != nil {
				return nil, nil, err
			}
			tb := experiments.OverallTable(data)
			tb.Title = "Holdout suite (CBP-4 analog): " + tb.Title
			return tb, data, nil
		}),
	})
	registerOutput(outputEntry{
		name: "fig8", doc: "per-benchmark MPKI, BTB omitted (paper Figure 8)",
		needsPasses: true,
		render: tableOnly(func(c *OutputContext) (*report.Table, any, error) {
			data, err := c.overallData()
			if err != nil {
				return nil, nil, err
			}
			return experiments.Fig8(data), data, nil
		}),
	})
	registerOutput(outputEntry{
		name: "fig9", doc: "relative MPKI share per benchmark (paper Figure 9)",
		needsPasses: true,
		render: tableOnly(func(c *OutputContext) (*report.Table, any, error) {
			data, err := c.overallData()
			if err != nil {
				return nil, nil, err
			}
			return experiments.Fig9(data), data, nil
		}),
	})
	registerOutput(outputEntry{
		name: "fig10", doc: "optimization ablation vs ITTAGE (paper Figure 10)",
		needsPasses: true,
		render:      renderFig10,
	})
	registerOutput(outputEntry{
		name: "fig11", doc: "IBTB associativity sweep (paper Figure 11)",
		needsPasses: true,
		render:      renderFig11,
	})
	registerOutput(outputEntry{
		name: "extras", doc: "extended related-work baselines (§2.2 lineage)",
		needsPasses: true,
		render:      tableOnly(renderExtras),
	})
	registerOutput(outputEntry{
		name: "arrays", doc: "weight-SRAM array-count sweep at ~constant storage",
		needsPasses: true,
		render:      tableOnly(renderArrays),
	})
	registerOutput(outputEntry{
		name: "targetbits", doc: "target bits folded into BLBP's global history",
		needsPasses: true,
		render:      tableOnly(renderTargetBits),
	})
	registerOutput(outputEntry{
		name: "combined", doc: "one BLBP structure for conditional + indirect prediction (§6)",
		needsPasses: true,
		render:      tableOnly(renderCombined),
	})
	registerOutput(outputEntry{
		name: "hierarchy", doc: "two-level IBTB hierarchy vs 64-way monolith (§6)",
		needsPasses: true, needsProbes: true,
		render: tableOnly(renderHierarchy),
	})
	registerOutput(outputEntry{
		name: "cottage", doc: "COTTAGE (TAGE + ITTAGE) vs hashed perceptron + BLBP (§2.2)",
		needsPasses: true,
		render:      tableOnly(renderCottage),
	})
	registerOutput(outputEntry{
		name: "latency", doc: "BLBP selection latency at 5 cosine similarities per cycle (§3.7)",
		needsPasses: true, needsProbes: true,
		render: tableOnly(renderLatency),
	})
	registerOutput(outputEntry{
		name: "seeds", doc: "seed sensitivity of the §5.1 headline across suite draws",
		needsPasses: true,
		render:      tableOnly(renderSeeds),
	})
	registerOutput(outputEntry{
		name: "mpki", doc: "generic per-workload MPKI table of every predictor in the plan",
		needsPasses: true,
		render:      tableOnly(renderMPKI),
	})
}

func renderFig10(c *OutputContext) (*report.Table, *report.Chart, any, error) {
	rows, err := c.rows()
	if err != nil {
		return nil, nil, nil, err
	}
	names, _ := c.variants(experiments.NameITTAGE)
	if err := c.requireNames(rows, append(append([]string{}, names...), experiments.NameITTAGE)); err != nil {
		return nil, nil, nil, err
	}
	ittageMean := meanMPKI(rows, experiments.NameITTAGE)
	out := make([]Fig10Row, 0, len(names))
	tb := report.NewTable(
		"Figure 10: effect of optimizations (percent MPKI reduction vs ITTAGE)",
		"variant", "mean MPKI", "% vs ITTAGE",
	)
	ch := report.NewChart("Figure 10 (bars = mean MPKI; lower is better)")
	for _, name := range names {
		mean := meanMPKI(rows, name)
		pct := stats.PercentChange(ittageMean, mean)
		out = append(out, Fig10Row{Variant: name, MeanMPKI: mean, PctVsITTAGE: pct})
		tb.AddRowf(name, mean, pct)
		ch.Add(name, mean)
	}
	tb.AddRowf("ittage (reference)", ittageMean, 0.0)
	return tb, ch, out, nil
}

func renderFig11(c *OutputContext) (*report.Table, *report.Chart, any, error) {
	rows, err := c.rows()
	if err != nil {
		return nil, nil, nil, err
	}
	names, _ := c.variants(experiments.NameITTAGE)
	if err := c.requireNames(rows, append(append([]string{}, names...), experiments.NameITTAGE)); err != nil {
		return nil, nil, nil, err
	}
	tb := report.NewTable(
		"Figure 11: effect of IBTB associativity (4096 entries)",
		"configuration", "mean MPKI",
	)
	ch := report.NewChart("Figure 11 (bars = mean MPKI; lower is better)")
	out := make([]Fig11Row, 0, len(names)+1)
	for _, name := range names {
		mean := meanMPKI(rows, name)
		out = append(out, Fig11Row{Label: name, MeanMPKI: mean})
		tb.AddRowf(name, mean)
		ch.Add(name, mean)
	}
	ittageMean := meanMPKI(rows, experiments.NameITTAGE)
	out = append(out, Fig11Row{Label: "ittage", MeanMPKI: ittageMean})
	tb.AddRowf("ittage", ittageMean)
	ch.Add("ittage", ittageMean)
	return tb, ch, out, nil
}

func renderExtras(c *OutputContext) (*report.Table, any, error) {
	rows, err := c.rows()
	if err != nil {
		return nil, nil, err
	}
	order := c.names()
	if err := c.requireNames(rows, append(append([]string{}, order...), experiments.NameITTAGE)); err != nil {
		return nil, nil, err
	}
	means := make(map[string]float64, len(order))
	for _, name := range order {
		means[name] = meanMPKI(rows, name)
	}
	tb := report.NewTable(
		"Extended baselines (§2.2 lineage): suite-mean indirect MPKI",
		"predictor", "mean MPKI", "vs ITTAGE %",
	)
	for _, name := range order {
		tb.AddRowf(name, means[name], stats.PercentChange(means[experiments.NameITTAGE], means[name]))
	}
	return tb, means, nil
}

func renderArrays(c *OutputContext) (*report.Table, any, error) {
	rows, err := c.rows()
	if err != nil {
		return nil, nil, err
	}
	names, bits := c.variants(experiments.NameITTAGE)
	if err := c.requireNames(rows, append(append([]string{}, names...), experiments.NameITTAGE)); err != nil {
		return nil, nil, err
	}
	tb := report.NewTable(
		"Extension: number of weight SRAM arrays (SNIP used 44, BLBP 8) at ~constant storage",
		"configuration", "mean MPKI", "storage (KB)",
	)
	means := map[string]float64{}
	for i, name := range names {
		means[name] = meanMPKI(rows, name)
		tb.AddRowf(name, means[name], stats.FormatKB(bits[i]))
	}
	means[experiments.NameITTAGE] = meanMPKI(rows, experiments.NameITTAGE)
	tb.AddRowf("ittage", means[experiments.NameITTAGE], "")
	return tb, means, nil
}

func renderTargetBits(c *OutputContext) (*report.Table, any, error) {
	rows, err := c.rows()
	if err != nil {
		return nil, nil, err
	}
	names, _ := c.variants(experiments.NameITTAGE)
	if err := c.requireNames(rows, append(append([]string{}, names...), experiments.NameITTAGE)); err != nil {
		return nil, nil, err
	}
	tb := report.NewTable(
		"Extension: target bits folded into BLBP's global history (0 = paper-literal conditional-only GHIST)",
		"configuration", "mean MPKI",
	)
	means := map[string]float64{}
	for _, name := range names {
		means[name] = meanMPKI(rows, name)
		tb.AddRowf(name, means[name])
	}
	means[experiments.NameITTAGE] = meanMPKI(rows, experiments.NameITTAGE)
	tb.AddRowf("ittage", means[experiments.NameITTAGE])
	return tb, means, nil
}

func renderCombined(c *OutputContext) (*report.Table, any, error) {
	rows, err := c.rows()
	if err != nil {
		return nil, nil, err
	}
	if err := c.requireNames(rows, []string{experiments.NameBLBP, "combined"}); err != nil {
		return nil, nil, err
	}
	var out CombinedResult
	dAcc := make([]float64, len(rows))
	dMPKI := make([]float64, len(rows))
	cAcc := make([]float64, len(rows))
	cMPKI := make([]float64, len(rows))
	for i, r := range rows {
		dAcc[i] = r.Results[experiments.NameBLBP].CondAccuracy()
		dMPKI[i] = r.MPKI(experiments.NameBLBP)
		cAcc[i] = r.Results["combined"].CondAccuracy()
		cMPKI[i] = r.MPKI("combined")
	}
	out.DedicatedCondAcc = stats.Mean(dAcc)
	out.DedicatedIndirectMPKI = stats.Mean(dMPKI)
	out.ConsolidatedCondAcc = stats.Mean(cAcc)
	out.ConsolidatedIndirectMPKI = stats.Mean(cMPKI)
	out.DedicatedBits, out.ConsolidatedBits, err = c.combinedStorage()
	if err != nil {
		return nil, nil, err
	}

	tb := report.NewTable(
		"Extension (§6 future work): one BLBP structure for conditional + indirect prediction",
		"configuration", "cond accuracy", "indirect MPKI", "storage (KB)",
	)
	tb.AddRowf("dedicated (HP + BLBP)", out.DedicatedCondAcc, out.DedicatedIndirectMPKI,
		stats.FormatKB(out.DedicatedBits))
	tb.AddRowf("consolidated (combined BLBP)", out.ConsolidatedCondAcc, out.ConsolidatedIndirectMPKI,
		stats.FormatKB(out.ConsolidatedBits))
	return tb, out, nil
}

func renderHierarchy(c *OutputContext) (*report.Table, any, error) {
	rows, err := c.rows()
	if err != nil {
		return nil, nil, err
	}
	if err := c.requireNames(rows, []string{"mono-64way", "mono-8way", "hierarchy"}); err != nil {
		return nil, nil, err
	}
	var res HierarchyResult
	res.Mono64MPKI = meanMPKI(rows, "mono-64way")
	res.Mono8MPKI = meanMPKI(rows, "mono-8way")
	res.HierMPKI = meanMPKI(rows, "hierarchy")
	rates := make([]float64, 0, len(rows))
	for w := range rows {
		o, err := c.observation(w, "hierarchy", "L2 probe rate")
		if err != nil {
			return nil, nil, err
		}
		rate := 0.0
		if o.Lookups > 0 {
			rate = float64(o.L2Probes) / float64(o.Lookups)
		}
		rates = append(rates, rate)
	}
	res.HierL2Rate = stats.Mean(rates)

	tb := report.NewTable(
		"Extension (§6 future work): avoiding 64-way IBTB associativity with a two-level hierarchy",
		"configuration", "mean MPKI", "L2 probe rate",
	)
	tb.AddRowf("monolithic 64-way (paper)", res.Mono64MPKI, "")
	tb.AddRowf("monolithic 8-way", res.Mono8MPKI, "")
	tb.AddRowf("hierarchy 8-way L1 + 16-way L2", res.HierMPKI, res.HierL2Rate)
	return tb, res, nil
}

func renderCottage(c *OutputContext) (*report.Table, any, error) {
	rows, err := c.rows()
	if err != nil {
		return nil, nil, err
	}
	if err := c.requireNames(rows, []string{experiments.NameBLBP, experiments.NameITTAGE}); err != nil {
		return nil, nil, err
	}
	var res CottageResult
	hpAcc := make([]float64, len(rows))
	tgAcc := make([]float64, len(rows))
	blbp := make([]float64, len(rows))
	itt := make([]float64, len(rows))
	for i, r := range rows {
		hpAcc[i] = r.Results[experiments.NameBLBP].CondAccuracy()
		tgAcc[i] = r.Results[experiments.NameITTAGE].CondAccuracy()
		blbp[i] = r.MPKI(experiments.NameBLBP)
		itt[i] = r.MPKI(experiments.NameITTAGE)
	}
	res.HPCondAcc = stats.Mean(hpAcc)
	res.TAGECondAcc = stats.Mean(tgAcc)
	res.BLBPMPKI = stats.Mean(blbp)
	res.ITTAGEMPKI = stats.Mean(itt)

	tb := report.NewTable(
		"Extension (§2.2): COTTAGE (TAGE + ITTAGE) vs hashed perceptron + BLBP",
		"pairing", "cond accuracy", "indirect MPKI",
	)
	tb.AddRowf("hashed perceptron + BLBP", res.HPCondAcc, res.BLBPMPKI)
	tb.AddRowf("COTTAGE (TAGE + ITTAGE)", res.TAGECondAcc, res.ITTAGEMPKI)
	return tb, res, nil
}

func renderLatency(c *OutputContext) (*report.Table, any, error) {
	rows, err := c.rows()
	if err != nil {
		return nil, nil, err
	}
	var hist []int64
	for w := range rows {
		o, err := c.observation(w, experiments.NameBLBP, "candidate histogram")
		if err != nil {
			return nil, nil, err
		}
		if hist == nil {
			hist = make([]int64, len(o.Candidates))
		}
		for i, v := range o.Candidates {
			hist[i] += v
		}
	}
	var total, oneCycle, within4, cycleSum int64
	for n, v := range hist {
		total += v
		cycles := int64((n + 4) / 5)
		if cycles == 0 {
			cycles = 1 // an empty candidate set still costs the probe
		}
		if cycles <= 1 {
			oneCycle += v
		}
		if cycles <= 4 {
			within4 += v
		}
		cycleSum += cycles * v
	}
	var res LatencyResult
	if total > 0 {
		res.PctOneCycle = 100 * float64(oneCycle) / float64(total)
		res.PctWithin4 = 100 * float64(within4) / float64(total)
		res.MeanCycles = float64(cycleSum) / float64(total)
	}
	tb := report.NewTable(
		"Extension (§3.7): BLBP selection latency at 5 cosine similarities per cycle",
		"metric", "value",
	)
	tb.AddRowf("% predictions in 1 cycle (paper: over half)", res.PctOneCycle)
	tb.AddRowf("% predictions within 4 cycles (paper: ~90%)", res.PctWithin4)
	tb.AddRowf("mean cycles per prediction", res.MeanCycles)
	return tb, res, nil
}

func renderSeeds(c *OutputContext) (*report.Table, any, error) {
	if c.results == nil {
		return nil, nil, fmt.Errorf("plan ran no passes")
	}
	salts := c.plan.Suite.Salts
	if len(salts) == 0 {
		salts = []string{""}
	}
	rows := make([]SeedsRow, 0, len(salts))
	tb := report.NewTable(
		"Extension: seed sensitivity of the §5.1 headline (independent suite draws)",
		"seed draw", "ittage MPKI", "blbp MPKI", "blbp vs ittage %",
	)
	for i, salt := range salts {
		if err := c.requireNames(c.results[i], []string{experiments.NameITTAGE, experiments.NameBLBP}); err != nil {
			return nil, nil, err
		}
		data := experiments.OverallData{Rows: c.results[i], Predictors: standardOrder()}
		row := SeedsRow{
			Salt:       salt,
			ITTAGEMean: data.Mean(experiments.NameITTAGE),
			BLBPMean:   data.Mean(experiments.NameBLBP),
		}
		row.PctVsITTAGE = stats.PercentChange(row.ITTAGEMean, row.BLBPMean)
		rows = append(rows, row)
		label := salt
		if label == "" {
			label = "default"
		}
		tb.AddRowf(label, row.ITTAGEMean, row.BLBPMean, row.PctVsITTAGE)
	}
	pcts := make([]float64, len(rows))
	for i, r := range rows {
		pcts[i] = r.PctVsITTAGE
	}
	tb.AddRow("", "", "", "")
	tb.AddRowf(fmt.Sprintf("mean of %d draws", len(rows)), "", "", stats.Mean(pcts))
	tb.AddRowf("min / max", "", "",
		fmt.Sprintf("%.2f / %.2f", stats.Min(pcts), stats.Max(pcts)))
	return tb, rows, nil
}

// renderMPKI is the generic table for user plans: every predictor of the
// plan over every workload, with a suite-mean row.
func renderMPKI(c *OutputContext) (*report.Table, any, error) {
	rows, err := c.rows()
	if err != nil {
		return nil, nil, err
	}
	names := c.names()
	if err := c.requireNames(rows, names); err != nil {
		return nil, nil, err
	}
	headers := append([]string{"workload"}, names...)
	tb := report.NewTable(
		fmt.Sprintf("Plan %s: indirect-branch MPKI per workload", c.plan.Name),
		headers...,
	)
	for _, r := range rows {
		cells := make([]interface{}, 0, len(names)+1)
		cells = append(cells, r.Spec.Name)
		for _, n := range names {
			cells = append(cells, r.MPKI(n))
		}
		tb.AddRowf(cells...)
	}
	cells := make([]interface{}, 0, len(names)+1)
	cells = append(cells, "MEAN")
	for _, n := range names {
		cells = append(cells, meanMPKI(rows, n))
	}
	tb.AddRowf(cells...)
	return tb, rows, nil
}

// combinedStorage reads the two storage budgets of the consolidation
// experiment off the plan's members: the dedicated split is the first
// standalone member named "blbp" plus its pass's conditional predictor,
// the consolidated budget is the first consolidated member's single
// structure.
func (c *OutputContext) combinedStorage() (dedicated, consolidated int, err error) {
	foundDed, foundCon := false, false
	for i, b := range c.cp.budgets {
		switch {
		case !foundDed && b.kind == "standalone" && c.cp.names[i] == experiments.NameBLBP:
			dedicated, foundDed = b.bits+b.condBits, true
		case !foundCon && b.kind == "consolidated":
			consolidated, foundCon = b.bits, true
		}
	}
	if !foundDed || !foundCon {
		return 0, 0, fmt.Errorf("plan needs a dedicated %q pass and a consolidated pass", experiments.NameBLBP)
	}
	return dedicated, consolidated, nil
}
