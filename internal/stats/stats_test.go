package stats

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max should be 0")
	}
}

func TestPercentChange(t *testing.T) {
	if got := PercentChange(0.2, 0.19); math.Abs(got-5) > 1e-9 {
		t.Errorf("PercentChange = %v, want 5", got)
	}
	if got := PercentChange(0.1, 0.2); math.Abs(got+100) > 1e-9 {
		t.Errorf("PercentChange = %v, want -100", got)
	}
	if PercentChange(0, 1) != 0 {
		t.Error("PercentChange with zero base should be 0")
	}
}

func TestFormatKB(t *testing.T) {
	if got := FormatKB(8192); got != "1.00 KB" {
		t.Errorf("FormatKB = %q, want \"1.00 KB\"", got)
	}
}
