package replacement

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRRIPInitialVictimIsWayZero(t *testing.T) {
	r := NewRRIP(4, 4, 2)
	if got := r.Victim(0); got != 0 {
		t.Errorf("Victim on pristine set = %d, want 0", got)
	}
}

func TestRRIPHitProtects(t *testing.T) {
	r := NewRRIP(1, 4, 2)
	for w := 0; w < 4; w++ {
		r.OnInsert(0, w)
	}
	r.OnHit(0, 2)
	// Way 2 has RRPV 0; others have 2. Victim search ages everyone until an
	// RRPV hits 3 — ways 0,1,3 reach it first.
	v := r.Victim(0)
	if v == 2 {
		t.Error("Victim chose the just-hit way")
	}
}

func TestRRIPAgingReachesVictim(t *testing.T) {
	r := NewRRIP(1, 2, 2)
	r.OnHit(0, 0)
	r.OnHit(0, 1)
	// Both ways at RRPV 0: Victim must age the set and terminate.
	v := r.Victim(0)
	if v != 0 && v != 1 {
		t.Errorf("Victim = %d, want 0 or 1", v)
	}
}

func TestRRIPInsertLongInterval(t *testing.T) {
	r := NewRRIP(1, 4, 2)
	r.OnInsert(0, 1)
	if got := r.RRPV(0, 1); got != 2 {
		t.Errorf("RRPV after insert = %d, want 2 (max-1)", got)
	}
	r.OnHit(0, 1)
	if got := r.RRPV(0, 1); got != 0 {
		t.Errorf("RRPV after hit = %d, want 0", got)
	}
}

func TestRRIPVictimAlwaysInRange(t *testing.T) {
	f := func(ops []uint16) bool {
		const sets, assoc = 4, 8
		r := NewRRIP(sets, assoc, 2)
		for _, op := range ops {
			set := int(op) % sets
			way := int(op>>4) % assoc
			switch op % 3 {
			case 0:
				r.OnHit(set, way)
			case 1:
				r.OnInsert(set, way)
			default:
				v := r.Victim(set)
				if v < 0 || v >= assoc {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRRIPPanicsOnBadGeometry(t *testing.T) {
	cases := []struct {
		name              string
		sets, assoc, bits int
	}{
		{"zero sets", 0, 4, 2},
		{"zero assoc", 4, 0, 2},
		{"zero bits", 4, 4, 0},
		{"nine bits", 4, 4, 9},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			NewRRIP(c.sets, c.assoc, c.bits)
		}()
	}
}

func TestLRUVictimIsLeastRecent(t *testing.T) {
	l := NewLRU(1, 4)
	for w := 0; w < 4; w++ {
		l.OnInsert(0, w)
	}
	l.OnHit(0, 0) // way 0 becomes most recent; way 1 is now the oldest
	if got := l.Victim(0); got != 1 {
		t.Errorf("Victim = %d, want 1", got)
	}
}

func TestLRUPrefersUntouchedWays(t *testing.T) {
	l := NewLRU(1, 4)
	l.OnInsert(0, 0)
	l.OnInsert(0, 2)
	v := l.Victim(0)
	if v != 1 && v != 3 {
		t.Errorf("Victim = %d, want an untouched way (1 or 3)", v)
	}
}

func TestLRUSetsAreIndependent(t *testing.T) {
	l := NewLRU(2, 2)
	l.OnInsert(0, 0)
	l.OnInsert(0, 1)
	l.OnHit(0, 0)
	// Set 1 untouched: victim may be any way, but set 0's victim is way 1.
	if got := l.Victim(0); got != 1 {
		t.Errorf("set 0 Victim = %d, want 1", got)
	}
}

func TestLRUFullSequenceMatchesReference(t *testing.T) {
	// Compare against a reference implementation that keeps an explicit
	// recency list.
	const assoc = 8
	l := NewLRU(1, assoc)
	order := make([]int, 0, assoc) // most recent last
	touchRef := func(way int) {
		for i, w := range order {
			if w == way {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		order = append(order, way)
	}
	rng := rand.New(rand.NewSource(5))
	for w := 0; w < assoc; w++ {
		l.OnInsert(0, w)
		touchRef(w)
	}
	for i := 0; i < 1000; i++ {
		w := rng.Intn(assoc)
		l.OnHit(0, w)
		touchRef(w)
		if got, want := l.Victim(0), order[0]; got != want {
			t.Fatalf("step %d: Victim = %d, want %d", i, got, want)
		}
	}
}

func TestLRUPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLRU(0, 1) did not panic")
		}
	}()
	NewLRU(0, 1)
}
