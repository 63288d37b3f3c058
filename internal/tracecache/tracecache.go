// Package tracecache memoizes workload trace construction across every
// experiment driver in one process. A full `experiments all` run touches
// the same 88-workload suite from a dozen drivers; without the cache each
// driver rebuilds every trace from its generator (internal/experiments PR 1
// profile: most of the suite wall clock). The cache keys on the spec's
// identity (name, seed, instruction budget, parameter fingerprint — see
// workload.Spec.Identity),
// deduplicates concurrent builds with single-flight entries, counts hits,
// misses and bytes, and can bound its memory footprint with an LRU spill
// that evicts traces to disk and decodes them back on the next touch
// instead of rebuilding.
//
// Spill files are a persistent cache tier, not just eviction overflow.
// Each file is self-describing — a trace.SpillHeader carrying the full
// workload identity and record count, then checksummed payload blocks —
// and is written via temp file + rename so a crash never leaves a
// decodable-but-truncated file at a canonical name. A cache whose Config names a SpillDir indexes
// the directory's existing files at construction (Preload), so Get serves
// identities spilled by an earlier process from disk without running the
// generator; with Config.KeepSpill, Close flushes every live entry to the
// directory and retains the files, making repeated full-suite runs warm
// after the first.
//
// Entries hold traces as trace.Columns (what generators emit, spill files
// decode into, and the replay engine consumes). Each entry also memoizes
// the two derived artifacts every driver needs: the trace's statistics
// (trace.Analyze, shared by the characterization figures) and its
// simulation tape (sim.NewTape, shared by every predictor pass; see
// internal/sim).
package tracecache

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"blbp/internal/sim"
	"blbp/internal/snapshot"
	"blbp/internal/trace"
	"blbp/internal/workload"
)

// entryOverheadBytes approximates per-entry bookkeeping on top of the
// trace's own arrays (trace.Columns.Bytes).
const entryOverheadBytes = 256

// spillExt names finished spill files; tempPattern names in-flight writes
// (never indexed by Preload, renamed onto spillExt names when complete).
const (
	spillExt    = ".blbptrc"
	tempPattern = "spill-*.tmp"
)

// Config parameterizes a Cache.
type Config struct {
	// MaxBytes bounds the approximate in-memory footprint of live traces;
	// 0 means unbounded. When the bound is exceeded the least-recently-used
	// entries are evicted.
	MaxBytes int64
	// SpillDir, when non-empty, receives evicted traces as self-describing
	// spill files so a later Get decodes them from disk instead of
	// re-running the generator. New creates the directory if needed and
	// indexes any spill files already in it (see Preload), so a directory
	// kept by a previous process warm-starts this one. Empty means evicted
	// traces are simply dropped.
	SpillDir string
	// KeepSpill retains SpillDir's files at Close for a later process:
	// Close flushes every live entry to disk, keeps all valid spill files,
	// and prunes stale-format files and orphaned temp files. When false,
	// Close removes the cache's spill files (both written and preloaded).
	KeepSpill bool
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Builds counts generator invocations (spec.Build calls).
	Builds int64
	// Hits counts Gets served from a live entry, including Gets that
	// coalesced onto an in-flight build.
	Hits int64
	// Misses counts Gets that had to create the entry.
	Misses int64
	// SpillLoads counts entries restored by decoding a spill file.
	SpillLoads int64
	// PreloadHits counts the subset of SpillLoads served by files indexed
	// from a pre-existing spill directory (written by an earlier process)
	// rather than spilled by this one.
	PreloadHits int64
	// SpillErrors counts spill-tier failures: writes that were dropped and
	// loads that failed validation or I/O and fell back to the generator.
	// The first failure is logged to stderr; the rest only count here.
	SpillErrors int64
	// Evictions counts entries evicted from memory by the byte budget.
	Evictions int64
	// LiveBytes approximates the bytes held by live entries.
	LiveBytes int64
}

func (s Stats) String() string {
	return fmt.Sprintf("%d builds, %d hits, %d misses, %d spill loads (%d preload), %d spill errors, %d evictions, %.1f MB live",
		s.Builds, s.Hits, s.Misses, s.SpillLoads, s.PreloadHits, s.SpillErrors, s.Evictions, float64(s.LiveBytes)/(1<<20))
}

// Cache is a process-wide trace cache. The zero value is not usable; use
// New. All methods are safe for concurrent use.
type Cache struct {
	cfg Config

	mu        sync.Mutex
	entries   map[workload.Identity]*Entry
	lru       *list.List // of *Entry, front = most recently used
	spilled   map[workload.Identity]string
	preloaded map[workload.Identity]bool // spilled paths adopted by Preload
	stale     []string                   // unreadable *.blbptrc files; pruned at Close with KeepSpill
	live      int64                      // bytes, under mu

	builds      atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	spillLoads  atomic.Int64
	preloadHits atomic.Int64
	spillErrs   atomic.Int64
	evictions   atomic.Int64

	logSpillErr sync.Once
}

// New constructs a cache. A non-empty Config.SpillDir is created if absent
// and its existing spill files are indexed so Get can warm-start from them;
// directory errors disable the spill tier and count in Stats.SpillErrors
// rather than failing construction.
func New(cfg Config) *Cache {
	c := &Cache{
		cfg:       cfg,
		entries:   make(map[workload.Identity]*Entry),
		lru:       list.New(),
		spilled:   make(map[workload.Identity]string),
		preloaded: make(map[workload.Identity]bool),
	}
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			c.spillFailure(fmt.Errorf("creating spill dir: %w", err))
			c.cfg.SpillDir = ""
		} else {
			c.Preload(cfg.SpillDir)
		}
	}
	return c
}

// Entry is one cached workload: the built trace (held in columnar form —
// what every hot consumer replays) plus memoized derived artifacts. Entries
// stay valid after eviction — eviction only drops the cache's own
// reference.
type Entry struct {
	id    workload.Identity
	once  sync.Once
	build func() // bound at creation; every Get runs it through once
	cols  *trace.Columns
	bytes int64
	elem  *list.Element // LRU position, nil once evicted; under Cache.mu

	statsOnce sync.Once
	stats     *trace.Stats

	tapeOnce sync.Once
	tape     *sim.Tape
	tapeErr  error
}

// Columns returns the built trace in columnar form (shared; callers must
// not mutate it).
func (e *Entry) Columns() *trace.Columns { return e.cols }

// Stats returns the trace's statistics, analyzing it on first use.
func (e *Entry) Stats() *trace.Stats {
	e.statsOnce.Do(func() { e.stats = trace.Analyze(e.cols) })
	return e.stats
}

// Tape returns the trace's simulation tape, building it on first use.
func (e *Entry) Tape() (*sim.Tape, error) {
	e.tapeOnce.Do(func() { e.tape, e.tapeErr = sim.NewTape(e.cols) })
	return e.tape, e.tapeErr
}

// Preload indexes every spill file in dir by the identity in its header,
// so subsequent Gets of those identities decode from disk instead of
// running the generator — even identities never evicted (or built) in this
// process. New calls it on Config.SpillDir; call it directly to adopt
// files from an additional directory. Files with the spill extension that
// do not parse as spill files (older formats, truncated crash leftovers)
// are remembered as stale and pruned by Close when KeepSpill is set.
// Identities already live or already indexed are skipped. Returns the
// number of identities indexed.
func (c *Cache) Preload(dir string) int {
	des, err := os.ReadDir(dir)
	if err != nil {
		if !os.IsNotExist(err) {
			c.spillFailure(fmt.Errorf("reading spill dir: %w", err))
		}
		return 0
	}
	n := 0
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), spillExt) {
			continue
		}
		path := filepath.Join(dir, de.Name())
		h, err := readSpillHeaderFile(path)
		if err != nil {
			// Surface the damage instead of silently skipping the file: the
			// operator sees the first failure on stderr and the rest in
			// Stats.SpillErrors, while the file is still remembered as stale
			// so Close can prune it.
			c.spillFailure(fmt.Errorf("preloading %s: %w", path, err))
			c.mu.Lock()
			c.stale = append(c.stale, path)
			c.mu.Unlock()
			continue
		}
		id := headerIdentity(h)
		c.mu.Lock()
		_, live := c.entries[id]
		_, indexed := c.spilled[id]
		if !live && !indexed {
			c.spilled[id] = path
			c.preloaded[id] = true
			n++
		}
		c.mu.Unlock()
	}
	return n
}

// Get returns the cache entry for the spec, building the trace on first
// touch. Concurrent Gets of the same spec coalesce onto one build; every
// other caller blocks until it completes and shares the entry. When the
// identity has a spill file on disk (evicted earlier, or preloaded from a
// previous process), the build decodes it — falling back to the generator
// if the file fails identity, checksum, or record-count validation.
func (c *Cache) Get(spec workload.Spec) *Entry {
	id := spec.Identity()
	c.mu.Lock()
	e := c.entries[id]
	if e != nil {
		c.touch(e)
		c.mu.Unlock()
		c.hits.Add(1)
		e.once.Do(e.build) // coalesce onto an in-flight build
		return e
	}
	e = &Entry{id: id}
	spillPath := c.spilled[id]
	fromPreload := c.preloaded[id]
	e.build = func() {
		if spillPath != "" {
			if cols, err := loadSpill(spillPath, id); err == nil {
				c.spillLoads.Add(1)
				if fromPreload {
					c.preloadHits.Add(1)
				}
				e.cols = cols
			} else {
				// Wrong-identity, corrupt, or unreadable file: drop it from
				// the index (and disk) and rebuild from the generator.
				c.spillFailure(fmt.Errorf("loading spill for %s: %w", id.Name, err))
				os.Remove(spillPath)
				c.mu.Lock()
				if c.spilled[id] == spillPath {
					delete(c.spilled, id)
					delete(c.preloaded, id)
				}
				c.mu.Unlock()
			}
		}
		if e.cols == nil {
			c.builds.Add(1)
			e.cols = spec.Build()
		}
		e.bytes = e.cols.Bytes() + int64(len(e.cols.Name)) + entryOverheadBytes
	}
	c.entries[id] = e
	c.mu.Unlock()
	c.misses.Add(1)

	e.once.Do(e.build)

	c.mu.Lock()
	if e.elem == nil && c.entries[id] == e {
		e.elem = c.lru.PushFront(e)
		c.live += e.bytes
	}
	victims := c.collectVictims(e)
	c.mu.Unlock()
	c.spill(victims)
	return e
}

// touch moves a live entry to the LRU front. Caller holds mu.
func (c *Cache) touch(e *Entry) {
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
}

// collectVictims evicts least-recently-used entries until the footprint
// fits the budget again, sparing keep, and returns them for spilling.
// Caller holds mu.
func (c *Cache) collectVictims(keep *Entry) []*Entry {
	if c.cfg.MaxBytes <= 0 {
		return nil
	}
	var victims []*Entry
	for c.live > c.cfg.MaxBytes && c.lru.Len() > 1 {
		back := c.lru.Back()
		v := back.Value.(*Entry)
		if v == keep {
			break
		}
		c.lru.Remove(back)
		v.elem = nil
		delete(c.entries, v.id)
		c.live -= v.bytes
		c.evictions.Add(1)
		victims = append(victims, v)
	}
	return victims
}

// spill writes evicted traces to the spill directory (outside the lock).
// A failed write counts in SpillErrors — the next Get of that identity
// rebuilds from the generator.
func (c *Cache) spill(victims []*Entry) {
	if c.cfg.SpillDir == "" {
		return
	}
	for _, v := range victims {
		c.mu.Lock()
		_, done := c.spilled[v.id]
		c.mu.Unlock()
		if done {
			continue
		}
		path := filepath.Join(c.cfg.SpillDir, spillName(v.id))
		if err := writeSpill(path, v.id, v.cols); err != nil {
			c.spillFailure(fmt.Errorf("spilling %s: %w", v.id.Name, err))
			continue
		}
		c.mu.Lock()
		c.spilled[v.id] = path
		c.mu.Unlock()
	}
}

// spillFailure counts a spill-tier error and logs the first one; later
// failures stay visible through Stats.SpillErrors without flooding stderr.
func (c *Cache) spillFailure(err error) {
	c.spillErrs.Add(1)
	c.logSpillErr.Do(func() {
		fmt.Fprintf(os.Stderr, "tracecache: %v (first failure; the rest only count in Stats.SpillErrors)\n", err)
	})
}

// spillName derives the canonical file name for an identity. The name is a
// bare hash and therefore not trusted on load: loadSpill validates the
// file's own header against the requested identity, so a colliding or
// stale file falls back to a rebuild instead of serving the wrong trace.
func spillName(id workload.Identity) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%016x", id.Name, id.Seed, id.Instructions, id.Fingerprint)
	return fmt.Sprintf("%016x%s", h.Sum64(), spillExt)
}

// writeSpill atomically and durably writes a self-describing spill file
// through snapshot.WriteFileAtomic: the payload lands under a temp name,
// is fsynced, republished at mode 0644, renamed onto path, and the
// directory is fsynced — so a crash never leaves a partial (or silently
// empty) file at a canonical name. See DESIGN.md §7.
func writeSpill(path string, id workload.Identity, cols *trace.Columns) error {
	return snapshot.WriteFileAtomic(path, tempPattern, func(w io.Writer) error {
		return trace.WriteSpillColumns(w, id.SpillHeader(), cols)
	})
}

// headerIdentity is the workload identity a spill header declares.
func headerIdentity(h trace.SpillHeader) workload.Identity {
	return workload.Identity{Name: h.Name, Seed: h.Seed, Instructions: h.Instructions, Fingerprint: h.Fingerprint}
}

// readSpillHeaderFile reads just the header of a spill file.
func readSpillHeaderFile(path string) (trace.SpillHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.SpillHeader{}, err
	}
	defer f.Close()
	return trace.ReadSpillHeader(f)
}

// readSpillFile reads and fully validates a spill file into columnar form.
func readSpillFile(path string) (trace.SpillHeader, *trace.Columns, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.SpillHeader{}, nil, err
	}
	defer f.Close()
	return trace.ReadSpillColumns(f)
}

// loadSpill decodes the spill file at path and verifies it really is the
// requested identity — name, seed, instruction budget, and parameter
// fingerprint from the header, with the checksum and record count checked
// against the payload by trace.ReadSpillColumns. Every field must match
// exactly; a bare file-name match is never sufficient.
func loadSpill(path string, id workload.Identity) (*trace.Columns, error) {
	h, cols, err := readSpillFile(path)
	if err != nil {
		return nil, err
	}
	if headerIdentity(h) != id {
		return nil, fmt.Errorf("tracecache: spill %s holds %s/%d/%d/%016x, want %s/%d/%d/%016x (stale or colliding file)",
			filepath.Base(path), h.Name, h.Seed, h.Instructions, h.Fingerprint, id.Name, id.Seed, id.Instructions, id.Fingerprint)
	}
	return cols, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	live := c.live
	c.mu.Unlock()
	return Stats{
		Builds:      c.builds.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		SpillLoads:  c.spillLoads.Load(),
		PreloadHits: c.preloadHits.Load(),
		SpillErrors: c.spillErrs.Load(),
		Evictions:   c.evictions.Load(),
		LiveBytes:   live,
	}
}

// Close drops every entry. Without KeepSpill it removes the cache's spill
// files, written and preloaded alike (the pre-persistence behavior). With
// KeepSpill it instead flushes every live built entry to the spill
// directory so a later process can Preload the complete working set,
// retains all valid spill files, and prunes stale-format files and
// orphaned temp files. Close must not race concurrent Gets.
func (c *Cache) Close() {
	if c.cfg.KeepSpill && c.cfg.SpillDir != "" {
		c.mu.Lock()
		var flush []*Entry
		for id, e := range c.entries {
			if e.cols == nil {
				continue
			}
			if _, done := c.spilled[id]; !done {
				flush = append(flush, e)
			}
		}
		stale := c.stale
		c.stale = nil
		c.mu.Unlock()
		c.spill(flush)
		for _, path := range stale {
			os.Remove(path)
		}
		if tmps, err := filepath.Glob(filepath.Join(c.cfg.SpillDir, tempPattern)); err == nil {
			for _, tmp := range tmps {
				os.Remove(tmp)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.cfg.KeepSpill {
		for id, path := range c.spilled {
			os.Remove(path)
			delete(c.spilled, id)
		}
	}
	c.entries = make(map[workload.Identity]*Entry)
	c.lru.Init()
	c.live = 0
}
