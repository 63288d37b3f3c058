// Package hwbudget is analyzer testdata: loaded under a path ending in
// internal/core so the modulo-index rule applies.
package hwbudget

func index(table []int8, pc uint64) int8 {
	bad := table[pc%uint64(len(table))] // want "table index computed with %"
	good := table[pc&uint64(len(table)-1)]
	return bad + good
}
