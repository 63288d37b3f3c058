package trace

import (
	"cmp"
	"slices"
)

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
	// sites holds one entry per static indirect branch, sorted by PC.
	sites []site
}

// site is one static indirect branch: how many distinct targets it took and
// how many times it executed.
type site struct {
	targets int
	execs   int64
}

// Analyze computes statistics over a trace. Totals and per-class counts
// come from the columns' aggregates. The per-site figures come from the
// trace's table of distinct records: one pass over the index column counts
// each entry's uses, then the indirect entries, sorted by PC and target,
// group into sites.
func Analyze(c *Columns) *Stats {
	s := &Stats{Name: c.Name, Instructions: c.Instructions()}
	for t := BranchType(0); t < numBranchTypes; t++ {
		s.Count[t] = c.Count(t)
	}
	var uses []int64
	if c.idx32 != nil {
		uses = countUses(len(c.table), c.idx32)
	} else {
		uses = countUses(len(c.table), c.idx16)
	}
	type entry struct {
		pc, target uint64
		uses       int64
	}
	var ind []entry
	for i := range c.table {
		if r := &c.table[i]; r.Type.IsIndirect() && uses[i] > 0 {
			ind = append(ind, entry{r.PC, r.Target, uses[i]})
		}
	}
	// Entries differing only in gap or outcome share a (PC, target) pair:
	// sorted by both, a site's distinct targets are its runs of equal
	// target.
	slices.SortFunc(ind, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.pc, b.pc), cmp.Compare(a.target, b.target))
	})
	for i, e := range ind {
		newSite := i == 0 || e.pc != ind[i-1].pc
		if newSite {
			s.sites = append(s.sites, site{})
		}
		st := &s.sites[len(s.sites)-1]
		if newSite || e.target != ind[i-1].target {
			st.targets++
		}
		st.execs += e.uses
	}
	return s
}

// countUses returns how many records index each of n table entries, built
// for each index width as runEnd is.
func countUses[I uint16 | uint32](n int, idx []I) []int64 {
	uses := make([]int64, n)
	for _, i := range idx {
		uses[i]++
	}
	return uses
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
func (s *Stats) StaticIndirectSites() int { return len(s.sites) }

// PolymorphicFraction returns the fraction of dynamic indirect branch
// executions whose static branch has more than one observed target over the
// whole trace (the paper's Fig. 6 metric). Returns 0 for traces without
// indirect branches.
func (s *Stats) PolymorphicFraction() float64 {
	var poly, total int64
	for _, st := range s.sites {
		total += st.execs
		if st.targets > 1 {
			poly += st.execs
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
	for _, st := range s.sites {
		counts[min(st.targets, max)] += st.execs
		total += st.execs
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

// MaxTargets returns the largest distinct-target-set size observed, or 0.
func (s *Stats) MaxTargets() int {
	n := 0
	for _, st := range s.sites {
		n = max(n, st.targets)
	}
	return n
}
