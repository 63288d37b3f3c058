package core

// The non-linear transfer function of paper §3.6 (Fig. 5): a convex mapping
// applied to each weight before summation that amplifies high-magnitude
// (confident) weights and diminishes low ones, letting 4-bit weights model
// bit probabilities more sharply. The paper publishes only the plot; this
// integer table reproduces its convex character and was kept after the same
// kind of empirical tuning the authors describe.
var transferMagnitude = [8]int{0, 1, 2, 3, 4, 6, 9, 13}

// transferTable precomputes the transfer function over the full signed
// weight range for a given weight width, so the prediction loop is a table
// lookup. Index by weight−min. Every entry's magnitude is at most
// transferHi, the bound the packed lanes are sized for.
func buildTransferTable(weightBits int, useTransfer bool) []int {
	max := 1<<uint(weightBits-1) - 1
	min := -max // sign/magnitude representation: symmetric range
	table := make([]int, max-min+1)
	for w := min; w <= max; w++ {
		v := w
		if useTransfer {
			mag := w
			if mag < 0 {
				mag = -mag
			}
			// Scale the published 8-entry shape to wider weights if
			// configured; for the paper's 4-bit weights this is identity
			// indexing.
			idx := mag
			if max > 7 {
				idx = mag * 7 / max
			}
			v = transferMagnitude[idx]
			if w < 0 {
				v = -v
			}
		}
		table[w-min] = v
	}
	return table
}
