package trace

import "sort"

// Stats summarizes the branch population of a trace. It provides exactly the
// quantities the paper's characterization figures need: the per-kilo-
// instruction branch mix (Fig. 1), the fraction of instructions belonging to
// polymorphic indirect branches (Fig. 6), and the distribution of the number
// of distinct targets per indirect branch (Fig. 7).
type Stats struct {
	// Name is copied from the analyzed trace.
	Name string
	// Instructions is the total instruction count.
	Instructions int64
	// Count holds dynamic execution counts per branch type.
	Count [numBranchTypes]int64
	// targets maps each static indirect branch PC to its observed target
	// set and dynamic execution count.
	targets map[uint64]*siteInfo
}

type siteInfo struct {
	targets map[uint64]struct{}
	execs   int64
}

// Analyze computes statistics over a trace. Totals and per-class counts
// come from the columns' aggregates; only the indirect records are visited
// for the per-site target sets, each read through Columns.At from the
// trace's table of distinct records.
func Analyze(c *Columns) *Stats {
	s := &Stats{Name: c.Name, Instructions: c.Instructions(), targets: make(map[uint64]*siteInfo)}
	for t := BranchType(0); t < numBranchTypes; t++ {
		s.Count[t] = c.Count(t)
	}
	for i := 0; i < c.Len(); i++ {
		r := c.At(i)
		if !r.Type.IsIndirect() {
			continue
		}
		site := s.targets[r.PC]
		if site == nil {
			site = &siteInfo{targets: make(map[uint64]struct{})}
			s.targets[r.PC] = site
		}
		site.targets[r.Target] = struct{}{}
		site.execs++
	}
	return s
}

// PerKilo returns the dynamic execution count of the given branch type per
// 1000 instructions (the y-axis of the paper's Fig. 1).
func (s *Stats) PerKilo(t BranchType) float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Count[t]) * 1000 / float64(s.Instructions)
}

// BranchCount returns the total dynamic branch count across all types.
func (s *Stats) BranchCount() int64 {
	var n int64
	for _, c := range s.Count {
		n += c
	}
	return n
}

// IndirectCount returns the dynamic count of indirect jumps and calls.
func (s *Stats) IndirectCount() int64 {
	return s.Count[IndirectJump] + s.Count[IndirectCall]
}

// StaticIndirectSites returns the number of static indirect branch PCs seen.
func (s *Stats) StaticIndirectSites() int { return len(s.targets) }

// PolymorphicFraction returns the fraction of dynamic indirect branch
// executions whose static branch has more than one observed target over the
// whole trace (the paper's Fig. 6 metric). Returns 0 for traces without
// indirect branches.
func (s *Stats) PolymorphicFraction() float64 {
	var poly, total int64
	//blbp:allow(determinism) commutative sum over site counters; order-independent
	for _, site := range s.targets {
		total += site.execs
		if len(site.targets) > 1 {
			poly += site.execs
		}
	}
	if total == 0 {
		return 0
	}
	return float64(poly) / float64(total)
}

// TargetCountCCDF returns, for each x in [1, max], the percentage of dynamic
// indirect branch executions whose static branch has at least x distinct
// targets — the complementary CDF plotted in the paper's Fig. 7. The slice
// is indexed from 0, so result[0] corresponds to "at least 1 target" (always
// 100 when indirect branches exist).
func (s *Stats) TargetCountCCDF(max int) []float64 {
	if max <= 0 {
		return nil
	}
	counts := make([]int64, max+1)
	var total int64
	//blbp:allow(determinism) commutative histogram accumulation; order-independent
	for _, site := range s.targets {
		n := len(site.targets)
		if n > max {
			n = max
		}
		counts[n] += site.execs
		total += site.execs
	}
	ccdf := make([]float64, max)
	if total == 0 {
		return ccdf
	}
	var cum int64
	for x := max; x >= 1; x-- {
		cum += counts[x]
		ccdf[x-1] = float64(cum) * 100 / float64(total)
	}
	return ccdf
}

// TargetSetSizes returns the distinct-target-set size of every static
// indirect branch, sorted ascending.
func (s *Stats) TargetSetSizes() []int {
	sizes := make([]int, 0, len(s.targets))
	//blbp:allow(determinism) collected sizes are sorted below before returning
	for _, site := range s.targets {
		sizes = append(sizes, len(site.targets))
	}
	sort.Ints(sizes)
	return sizes
}

// MaxTargets returns the largest distinct-target-set size observed, or 0.
func (s *Stats) MaxTargets() int {
	max := 0
	//blbp:allow(determinism) max reduction; order-independent
	for _, site := range s.targets {
		if len(site.targets) > max {
			max = len(site.targets)
		}
	}
	return max
}
