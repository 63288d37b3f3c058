package replacement

// LRU implements true least-recently-used replacement using per-way
// recency stamps drawn from a single monotonically increasing clock, so
// stamps are comparable across sets (VPC exploits this to find the least
// recently used virtual-PC slot).
type LRU struct {
	stamp []uint64
	clock uint64
	assoc int
}

// NewLRU returns an LRU policy for numSets sets of assoc ways.
func NewLRU(numSets, assoc int) *LRU {
	if numSets <= 0 || assoc <= 0 {
		panic("replacement: NewLRU with non-positive geometry")
	}
	return &LRU{
		stamp: make([]uint64, numSets*assoc),
		assoc: assoc,
	}
}

func (l *LRU) touch(set, way int) {
	l.clock++
	l.stamp[set*l.assoc+way] = l.clock
}

// Stamp returns the way's recency stamp (0 = never touched). Larger is more
// recent; stamps are comparable across sets.
func (l *LRU) Stamp(set, way int) uint64 { return l.stamp[set*l.assoc+way] }

// OnHit records a reference to an existing entry.
func (l *LRU) OnHit(set, way int) { l.touch(set, way) }

// OnInsert records an entry installed in the way.
func (l *LRU) OnInsert(set, way int) { l.touch(set, way) }

// Reset zeroes every stamp and the clock, the freshly constructed state.
// Caches call it from their own Reset so a recycled structure ages its
// ways exactly like a new one.
func (l *LRU) Reset() {
	for i := range l.stamp {
		l.stamp[i] = 0
	}
	l.clock = 0
}

// Victim selects the way to evict from a full set: the one with the
// oldest stamp. Never-touched ways have stamp 0 and are preferred.
func (l *LRU) Victim(set int) int {
	base := set * l.assoc
	best, bestStamp := 0, l.stamp[base]
	for w := 1; w < l.assoc; w++ {
		if s := l.stamp[base+w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}
