// Package tracecache memoizes workload trace construction across every
// experiment driver in one process. A full `experiments all` run touches
// the same 88-workload suite from a dozen drivers; without the cache each
// driver rebuilds every trace from its generator (internal/experiments PR 1
// profile: most of the suite wall clock). The cache keys on the spec's
// identity (name, seed, instruction budget, parameter fingerprint — see
// workload.Spec.Identity), deduplicates concurrent builds with
// single-flight entries, and counts hits, misses and bytes. Every built
// trace stays in memory until Close.
//
// Spill files are the cache's persistent tier. Each file is
// self-describing — a trace.SpillHeader carrying the full workload
// identity and record count, then checksummed payload blocks — and is
// written via temp file + rename so a crash never leaves a
// decodable-but-truncated file at a canonical name. A cache whose Config
// names a SpillDir indexes the directory's existing files at construction,
// so Get serves identities spilled by an earlier process from disk without
// running the generator; with Config.KeepSpill, Close flushes every live
// entry to the directory, making repeated full-suite runs warm after the
// first. Without KeepSpill the cache only reads the directory, which must
// exist.
//
// Entries hold traces as trace.Columns (what generators emit, spill files
// decode into, and the replay engine consumes). Each entry also memoizes
// the two derived artifacts every driver needs: the trace's statistics
// (trace.Analyze, shared by the characterization figures) and its
// simulation tape (sim.NewTape, shared by every predictor pass; see
// internal/sim).
package tracecache

import (
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
// (never indexed by preload, renamed onto spillExt names when complete).
const (
	spillExt    = ".blbptrc"
	tempPattern = "spill-*.tmp"
)

// Config parameterizes a Cache.
type Config struct {
	// SpillDir, when non-empty, is the directory of the persistent tier.
	// New indexes any spill files already in it, so a Get decodes a trace
	// that a previous process kept there instead of re-running the
	// generator. Only a KeepSpill cache creates the directory; for any
	// other, a missing directory counts as a spill error. Empty means no
	// spill tier.
	SpillDir string
	// KeepSpill makes Close flush every live entry to SpillDir for a later
	// process and prune stale-format files and orphaned temp files there.
	// It is the only way spill files get written. A cache without it only
	// reads its directory: the one file it ever removes is one that Get
	// finds failing its identity or checksum check.
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
	// SpillErrors counts spill-tier failures: writes that were dropped and
	// loads that failed validation or I/O and fell back to the generator.
	// The first failure is logged to stderr; the rest only count here.
	SpillErrors int64
	// LiveBytes approximates the bytes held by live entries: each charges
	// its trace's Columns.Bytes, its name and entryOverheadBytes.
	LiveBytes int64
}

func (s Stats) String() string {
	return fmt.Sprintf("%d builds, %d hits, %d misses, %d spill loads, %d spill errors, %.1f MB live",
		s.Builds, s.Hits, s.Misses, s.SpillLoads, s.SpillErrors, float64(s.LiveBytes)/(1<<20))
}

// Cache is a process-wide trace cache. The zero value is not usable; use
// New. All methods are safe for concurrent use.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	entries map[workload.Identity]*Entry
	spilled map[workload.Identity]string
	stale   []string // unreadable *.blbptrc files; pruned at Close with KeepSpill

	builds     atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	spillLoads atomic.Int64
	spillErrs  atomic.Int64
	live       atomic.Int64 // bytes

	logSpillErr sync.Once
}

// New constructs a cache. A KeepSpill cache creates Config.SpillDir if
// absent; every cache with a SpillDir indexes the spill files already in it
// so Get can warm-start from them. A directory that cannot be created
// disables the spill tier; that and one that cannot be read count in
// Stats.SpillErrors rather than failing construction.
func New(cfg Config) *Cache {
	c := &Cache{
		cfg:     cfg,
		entries: make(map[workload.Identity]*Entry),
		spilled: make(map[workload.Identity]string),
	}
	if cfg.SpillDir == "" {
		return c
	}
	if cfg.KeepSpill {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			c.spillFailure(fmt.Errorf("creating spill dir: %w", err))
			c.cfg.SpillDir = ""
			return c
		}
	}
	c.preload()
	return c
}

// Entry is one cached workload: the built trace (held in columnar form —
// what every hot consumer replays) plus memoized derived artifacts. Entries
// stay valid after Close, which only drops the cache's own references.
type Entry struct {
	once  sync.Once
	build func() // bound at creation; every Get runs it through once
	cols  *trace.Columns

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

// preload indexes every spill file in the spill directory by the identity
// in its header, so Gets of those identities decode from disk instead of
// running the generator — even identities never built in this process.
// Files with the spill extension that do not parse as spill files (older
// formats, truncated crash leftovers) are remembered as stale and pruned by
// Close when KeepSpill is set. Of two files declaring one identity, the
// first in directory order is indexed. New calls it before the cache is
// shared, so it takes no lock.
func (c *Cache) preload() {
	des, err := os.ReadDir(c.cfg.SpillDir)
	if err != nil {
		c.spillFailure(fmt.Errorf("reading spill dir: %w", err))
		return
	}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), spillExt) {
			continue
		}
		path := filepath.Join(c.cfg.SpillDir, de.Name())
		h, err := readSpillHeaderFile(path)
		if err != nil {
			// Surface the damage instead of silently skipping the file: the
			// operator sees the first failure on stderr and the rest in
			// Stats.SpillErrors, while the file is still remembered as stale
			// so Close can prune it.
			c.spillFailure(fmt.Errorf("preloading %s: %w", path, err))
			c.stale = append(c.stale, path)
			continue
		}
		if id := headerIdentity(h); c.spilled[id] == "" {
			c.spilled[id] = path
		}
	}
}

// Get returns the cache entry for the spec, building the trace on first
// touch. Concurrent Gets of the same spec coalesce onto one build; every
// other caller blocks until it completes and shares the entry. When the
// identity has a spill file on disk (indexed at construction), the build
// decodes it — falling back to the generator if the file fails identity,
// checksum, or record-count validation.
func (c *Cache) Get(spec workload.Spec) *Entry {
	id := spec.Identity()
	c.mu.Lock()
	if e := c.entries[id]; e != nil {
		c.mu.Unlock()
		c.hits.Add(1)
		e.once.Do(e.build) // coalesce onto an in-flight build
		return e
	}
	e := &Entry{}
	spillPath := c.spilled[id]
	e.build = func() {
		if spillPath != "" {
			if cols, err := loadSpill(spillPath, id); err == nil {
				c.spillLoads.Add(1)
				e.cols = cols
			} else {
				// Wrong-identity, corrupt, or unreadable file: drop it from
				// the index (and disk) and rebuild from the generator.
				c.spillFailure(fmt.Errorf("loading spill for %s: %w", id.Name, err))
				os.Remove(spillPath)
				c.mu.Lock()
				if c.spilled[id] == spillPath {
					delete(c.spilled, id)
				}
				c.mu.Unlock()
			}
		}
		if e.cols == nil {
			c.builds.Add(1)
			e.cols = spec.Build()
		}
		c.live.Add(e.cols.Bytes() + int64(len(e.cols.Name)) + entryOverheadBytes)
	}
	c.entries[id] = e
	c.mu.Unlock()
	c.misses.Add(1)
	e.once.Do(e.build)
	return e
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
	return Stats{
		Builds:      c.builds.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		SpillLoads:  c.spillLoads.Load(),
		SpillErrors: c.spillErrs.Load(),
		LiveBytes:   c.live.Load(),
	}
}

// Close drops every entry. With KeepSpill it first writes every built entry
// that has no spill file yet to the spill directory, so a later process can
// preload the complete working set, and prunes stale-format files and
// orphaned temp files; without it, Close leaves the directory alone. A
// failed write counts in SpillErrors; the next process rebuilds that trace
// from its generator. Close must not race concurrent Gets.
func (c *Cache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.KeepSpill && c.cfg.SpillDir != "" {
		for id, e := range c.entries {
			if _, done := c.spilled[id]; done || e.cols == nil {
				continue
			}
			path := filepath.Join(c.cfg.SpillDir, spillName(id))
			if err := writeSpill(path, id, e.cols); err != nil {
				c.spillFailure(fmt.Errorf("spilling %s: %w", id.Name, err))
				continue
			}
			c.spilled[id] = path
		}
		for _, path := range c.stale {
			os.Remove(path)
		}
		c.stale = nil
		if tmps, err := filepath.Glob(filepath.Join(c.cfg.SpillDir, tempPattern)); err == nil {
			for _, tmp := range tmps {
				os.Remove(tmp)
			}
		}
	}
	c.entries = make(map[workload.Identity]*Entry)
	c.live.Store(0)
}
