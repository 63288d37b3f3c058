package history

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"blbp/internal/snapshot"
)

// testGeometry is TAGE's and ITTAGE's default tagged-table shape.
func testGeometry() TaggedGeometry {
	return TaggedGeometry{
		BaseEntries:  4096,
		Tables:       8,
		TableEntries: 1024,
		MinHist:      4,
		MaxHist:      630,
		TagBitsMin:   9,
		HistBits:     631,
		ResetPeriod:  256 * 1024,
	}
}

func TestGeometricLengths(t *testing.T) {
	lens := GeometricLengths(4, 630, 8)
	if len(lens) != 8 {
		t.Fatalf("got %d lengths, want 8", len(lens))
	}
	if lens[0] != 4 {
		t.Errorf("first length = %d, want 4", lens[0])
	}
	if lens[7] != 630 {
		t.Errorf("last length = %d, want 630", lens[7])
	}
	for i := 1; i < len(lens); i++ {
		if lens[i] <= lens[i-1] {
			t.Errorf("lengths not strictly increasing at %d: %v", i, lens)
		}
	}
}

func TestGeometricLengthsSingle(t *testing.T) {
	if lens := GeometricLengths(5, 100, 1); !reflect.DeepEqual(lens, []int{5}) {
		t.Errorf("one table with min 5, max 100 gets %v, want [5]", lens)
	}
}

// TestTaggedRegistersGeometricLengths pins Tagged's folds to
// GeometricLengths at 1, 2, 8 and 12 tables: a single taken bit is shifted
// in and followed by not-taken bits until it leaves table i's index fold,
// and its tag fold must span the same length. TAGE and ITTAGE both hold a
// Tagged, so this covers the lengths both register.
func TestTaggedRegistersGeometricLengths(t *testing.T) {
	for _, n := range []int{1, 2, 8, 12} {
		g := testGeometry()
		g.Tables = n
		h := NewTagged(g, 1)
		got := make([]int, n)
		for i := range got {
			h.ghist.Reset()
			h.ghist.Shift(true)
			for h.ghist.Value(h.idxFolds[i]) != 0 {
				h.ghist.Shift(false)
				got[i]++
				if (h.ghist.Value(h.tagFolds[i]) != 0) != (h.ghist.Value(h.idxFolds[i]) != 0) {
					t.Fatalf("%d tables, table %d: index and tag folds span different lengths", n, i)
				}
			}
		}
		if want := GeometricLengths(g.MinHist, g.MaxHist, n); !reflect.DeepEqual(got, want) {
			t.Errorf("%d tables register %v, want %v", n, got, want)
		}
	}
}

// TestTaggedGeometryValidate checks that each rejected geometry's error
// names the field at fault.
func TestTaggedGeometryValidate(t *testing.T) {
	if err := testGeometry().Validate(); err != nil {
		t.Fatalf("default geometry rejected: %v", err)
	}
	for _, tc := range []struct {
		field  string
		mutate func(*TaggedGeometry)
	}{
		{"BaseEntries", func(g *TaggedGeometry) { g.BaseEntries = 0 }},
		{"Tables", func(g *TaggedGeometry) { g.Tables = 0 }},
		{"Tables", func(g *TaggedGeometry) { g.MinHist, g.MaxHist, g.Tables = 4, 10, 8 }},
		{"TableEntries", func(g *TaggedGeometry) { g.TableEntries = -1 }},
		{"MinHist", func(g *TaggedGeometry) { g.MinHist = 0 }},
		{"MaxHist", func(g *TaggedGeometry) { g.MaxHist = g.MinHist }},
		{"HistBits", func(g *TaggedGeometry) { g.HistBits = g.MaxHist }},
		{"TagBitsMin", func(g *TaggedGeometry) { g.TagBitsMin = -3 }},
		{"TagBitsMin", func(g *TaggedGeometry) { g.TagBitsMin = 17 }},
		{"ResetPeriod", func(g *TaggedGeometry) { g.ResetPeriod = 0 }},
	} {
		g := testGeometry()
		tc.mutate(&g)
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %v, want one naming %s", g, err, tc.field)
		}
	}
}

// TestTaggedRestoreRejectsMisc feeds RestoreState a misc section whose
// checksum is valid but whose contents are out of range: each must fail
// with ErrCorrupt, while an in-range section restores.
func TestTaggedRestoreRejectsMisc(t *testing.T) {
	type misc struct {
		phist   uint64
		useAlt  int8
		updates int64
	}
	restore := func(m misc) error {
		h := NewTagged(testGeometry(), 1)
		c := snapshot.NewContainer("tagged", 0)
		h.ghist.EncodeState(c.Section(secGhist))
		me := c.Section(secMisc)
		me.U64(m.phist)
		me.I8(m.useAlt)
		me.I64(m.updates)
		me.U64(h.rng)
		var buf bytes.Buffer
		if err := c.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		dc, err := snapshot.ReadContainer(&buf, "tagged", 0)
		if err != nil {
			t.Fatal(err)
		}
		return h.RestoreState(dc)
	}
	if err := restore(misc{phist: 0xffff, useAlt: UseAltMin, updates: 5}); err != nil {
		t.Fatalf("in-range misc section: %v", err)
	}
	for _, tc := range []struct {
		name string
		m    misc
	}{
		{"17-bit path history", misc{phist: 1 << 16}},
		{"use-alt -9", misc{useAlt: UseAltMin - 1}},
		{"use-alt 8", misc{useAlt: UseAltMax + 1}},
		{"negative update count", misc{updates: -1}},
	} {
		if err := restore(tc.m); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: restore returned %v, want ErrCorrupt", tc.name, err)
		}
	}
}
