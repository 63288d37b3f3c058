package core

import (
	"reflect"
	"testing"

	"blbp/internal/ibtb"
)

// TestDefaultConfigMatchesPaper holds DefaultConfig to the paper's BLBP
// configuration (§4.2, Table 2), so a drive-by tuning edit cannot leave
// the declared hardware budget:
//
//	K             12     predicted target bits
//	BitOffset     2      lowest predicted bit
//	TableEntries  1024   weight rows per sub-predictor (power of two)
//	WeightBits    4
//	Intervals     (0,13) (1,33) (23,49) (44,85) (77,149) (159,270) (252,630)
//	HistBits      631    global history bits 0..630
//	LocalEntries  256    local histories (power of two)
//	LocalBits     10
//	ThetaInit     18
//	IBTB          ibtb.DefaultConfig(), checked by ibtb's test of this name
//
// The power-of-two sizes are the ones indexed by mask.
func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	for _, f := range []struct {
		name      string
		got, want int
		pow2      bool
	}{
		{"K", c.K, 12, false},
		{"BitOffset", c.BitOffset, 2, false},
		{"TableEntries", c.TableEntries, 1024, true},
		{"WeightBits", c.WeightBits, 4, false},
		{"HistBits", c.HistBits, 631, false},
		{"LocalEntries", c.LocalEntries, 256, true},
		{"LocalBits", c.LocalBits, 10, false},
		{"ThetaInit", c.ThetaInit, 18, false},
	} {
		if f.got != f.want {
			t.Errorf("DefaultConfig().%s = %d; the paper's Table 2 specifies %d", f.name, f.got, f.want)
		}
		if f.pow2 && f.got&(f.got-1) != 0 {
			t.Errorf("DefaultConfig().%s = %d is not a power of two; the table cannot be indexed by mask", f.name, f.got)
		}
	}
	intervals := []Interval{{0, 13}, {1, 33}, {23, 49}, {44, 85}, {77, 149}, {159, 270}, {252, 630}}
	if !reflect.DeepEqual(c.Intervals, intervals) {
		t.Errorf("DefaultConfig().Intervals = %v; the paper's Table 2 specifies %v", c.Intervals, intervals)
	}
	if c.IBTB != ibtb.DefaultConfig() {
		t.Errorf("DefaultConfig().IBTB = %+v; want ibtb.DefaultConfig() = %+v", c.IBTB, ibtb.DefaultConfig())
	}
}
