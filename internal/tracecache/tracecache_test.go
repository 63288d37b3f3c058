package tracecache

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"blbp/internal/workload"
	"blbp/internal/wspec"
)

func testSpec(name string, instr int64) workload.Spec {
	return wspec.Leaf(name, "T", instr, workload.InterpreterParams{
		Opcodes: 10, ProgramLen: 24, Work: 20, CondPerHandler: 1,
		CondNoise: 0.005, DispatchNoise: 0.002,
	})
}

func TestGetBuildsOnceAndHits(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	spec := testSpec("cache-a", 5_000)
	e1 := c.Get(spec)
	if e1.Columns() == nil || e1.Columns().Len() == 0 {
		t.Fatal("empty trace")
	}
	e2 := c.Get(spec)
	if e1 != e2 {
		t.Error("second Get returned a different entry")
	}
	st := c.Stats()
	if st.Builds != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 build / 1 miss / 1 hit", st)
	}
	if st.LiveBytes <= 0 {
		t.Errorf("live bytes = %d", st.LiveBytes)
	}
}

// TestLiveBytesCountsTrueBytes: LiveBytes charges each entry what its
// trace really holds (Columns.Bytes: spare capacity included) plus its
// name and entryOverheadBytes, once per entry however often it is fetched,
// and Close drops the charge.
func TestLiveBytesCountsTrueBytes(t *testing.T) {
	specs := []workload.Spec{testSpec("live-a", 20_000), testSpec("live-b", 20_000)}
	var both int64
	for _, s := range specs {
		both += s.Build().Bytes() + int64(len(s.Name)) + entryOverheadBytes
	}
	c := New(Config{})
	for _, s := range specs {
		c.Get(s)
		c.Get(s)
	}
	if got := c.Stats().LiveBytes; got != both {
		t.Errorf("live bytes %d, want %d", got, both)
	}
	c.Close()
	if got := c.Stats().LiveBytes; got != 0 {
		t.Errorf("live bytes after Close %d, want 0", got)
	}
}

// TestConcurrentGetSingleFlight launches many goroutines on a randomized
// schedule over a few specs; each spec must be built exactly once and all
// callers must share one entry per spec.
func TestConcurrentGetSingleFlight(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	specs := []workload.Spec{
		testSpec("sf-a", 4_000),
		testSpec("sf-b", 4_000),
		testSpec("sf-c", 4_000),
	}
	const goroutines = 16
	rng := rand.New(rand.NewSource(1))
	order := make([][]int, goroutines)
	for g := range order {
		order[g] = rng.Perm(len(specs))
	}
	entries := make([][]*Entry, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		entries[g] = make([]*Entry, len(specs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, si := range order[g] {
				entries[g][si] = c.Get(specs[si])
			}
		}()
	}
	wg.Wait()
	for si := range specs {
		for g := 1; g < goroutines; g++ {
			if entries[g][si] != entries[0][si] {
				t.Errorf("spec %d: goroutine %d got a different entry", si, g)
			}
		}
		if tr := entries[0][si].Columns(); tr == nil || tr.Name != specs[si].Name {
			t.Errorf("spec %d: wrong or missing trace", si)
		}
	}
	st := c.Stats()
	if st.Builds != int64(len(specs)) {
		t.Errorf("builds = %d, want %d (single-flight violated)", st.Builds, len(specs))
	}
	if st.Hits+st.Misses != int64(goroutines*len(specs)) {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines*len(specs))
	}
}

// TestSpillRoundTrip writes a trace through a KeepSpill Close, then has a
// second cache over the directory decode it, record for record, without a
// generator run.
func TestSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("spill-a", 5_000)
	reference := spec.Build()

	c1 := New(Config{SpillDir: dir, KeepSpill: true})
	c1.Get(spec)
	c1.Close()

	c2 := New(Config{SpillDir: dir})
	defer c2.Close()
	tr := c2.Get(spec).Columns()
	if st := c2.Stats(); st.SpillLoads != 1 || st.Builds != 0 {
		t.Errorf("spill loads/builds = %d/%d, want 1/0 (reload must not rebuild)", st.SpillLoads, st.Builds)
	}
	if tr.Name != reference.Name || tr.Len() != reference.Len() {
		t.Fatalf("reloaded trace shape differs: %s/%d vs %s/%d",
			tr.Name, tr.Len(), reference.Name, reference.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if tr.Record(i) != reference.Record(i) {
			t.Fatalf("record %d differs after spill round trip", i)
		}
	}
}

// TestReadOnlyCloseKeepsSpillFiles: a cache without KeepSpill only reads
// its directory. Its Close leaves every spill file an earlier process kept,
// the one it loaded and the one it never touched, so a third cache still
// serves both from disk with no generator run.
func TestReadOnlyCloseKeepsSpillFiles(t *testing.T) {
	dir := t.TempDir()
	specA, specB := testSpec("close-a", 4_000), testSpec("close-b", 4_000)
	c1 := New(Config{SpillDir: dir, KeepSpill: true})
	c1.Get(specA)
	c1.Get(specB)
	c1.Close()
	if names, _ := os.ReadDir(dir); len(names) != 2 {
		t.Fatalf("%d spill files after KeepSpill Close, want 2", len(names))
	}

	c2 := New(Config{SpillDir: dir})
	c2.Get(specA)
	c2.Close()
	if names, _ := os.ReadDir(dir); len(names) != 2 {
		t.Fatalf("%d spill files after a read-only Close, want 2", len(names))
	}

	c3 := New(Config{SpillDir: dir})
	defer c3.Close()
	c3.Get(specA)
	c3.Get(specB)
	if st := c3.Stats(); st.Builds != 0 || st.SpillLoads != 2 || st.SpillErrors != 0 {
		t.Errorf("third cache: %v, want 0 builds, 2 spill loads, 0 spill errors", st)
	}
}

// TestWarmStartAcrossCaches is the cross-process round trip: a first cache
// with KeepSpill flushes its whole working set at Close, and a second cache
// over the same directory serves every Get from disk — zero generator runs.
func TestWarmStartAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	specs := []workload.Spec{testSpec("warm-a", 5_000), testSpec("warm-b", 4_000)}
	reference := specs[0].Build()

	c1 := New(Config{SpillDir: dir, KeepSpill: true})
	for _, s := range specs {
		c1.Get(s)
	}
	c1.Close()
	names, _ := os.ReadDir(dir)
	if len(names) != len(specs) {
		t.Fatalf("%d spill files after KeepSpill Close, want %d", len(names), len(specs))
	}

	c2 := New(Config{SpillDir: dir, KeepSpill: true})
	defer c2.Close()
	tr := c2.Get(specs[0]).Columns()
	c2.Get(specs[1])
	st := c2.Stats()
	if st.Builds != 0 {
		t.Errorf("warm cache builds = %d, want 0", st.Builds)
	}
	if st.SpillLoads != 2 {
		t.Errorf("spill loads = %d, want 2", st.SpillLoads)
	}
	if st.SpillErrors != 0 {
		t.Errorf("spill errors = %d, want 0", st.SpillErrors)
	}
	if tr.Name != reference.Name || tr.Len() != reference.Len() {
		t.Fatalf("warm trace shape %s/%d, want %s/%d", tr.Name, tr.Len(), reference.Name, reference.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if tr.Record(i) != reference.Record(i) {
			t.Fatalf("record %d differs after cross-process warm start", i)
		}
	}
}

// TestSpillCollisionWrongIdentityRejected is the regression test for the
// bare-FNV-name hazard: a file whose name matches the requested identity's
// spill name but whose contents belong to a different identity (hash
// collision, or a stale file from another seed/budget run) must be
// rejected by header validation and rebuilt, never served as-is.
func TestSpillCollisionWrongIdentityRejected(t *testing.T) {
	dir := t.TempDir()
	specA := testSpec("coll-a", 4_000)
	specB := testSpec("coll-b", 4_000)
	idB := specB.Identity()
	// Plant A's trace at B's canonical spill name — what a colliding or
	// stale file looks like on disk.
	path := filepath.Join(dir, spillName(idB))
	if err := writeSpill(path, specA.Identity(), specA.Build()); err != nil {
		t.Fatal(err)
	}
	c := New(Config{SpillDir: dir})
	defer c.Close()
	// Point B's spill index at the planted file, as a pre-header cache
	// keyed on file name alone effectively did.
	c.mu.Lock()
	c.spilled[idB] = path
	c.mu.Unlock()
	e := c.Get(specB)
	if e.Columns().Name != specB.Name {
		t.Fatalf("served trace %q for identity %q", e.Columns().Name, specB.Name)
	}
	st := c.Stats()
	if st.Builds != 1 || st.SpillLoads != 0 {
		t.Errorf("builds/spill loads = %d/%d, want 1/0 (mismatch must rebuild)", st.Builds, st.SpillLoads)
	}
	if st.SpillErrors != 1 {
		t.Errorf("spill errors = %d, want 1", st.SpillErrors)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("mismatched spill file not removed")
	}
}

// TestPreloadIndexesByHeaderNotFilename renames a valid spill file to
// another identity's canonical name: New must index it under the
// identity its header declares, so the right Get loads it and the
// file-name identity builds fresh.
func TestPreloadIndexesByHeaderNotFilename(t *testing.T) {
	dir := t.TempDir()
	specA := testSpec("hdr-a", 4_000)
	specB := testSpec("hdr-b", 4_000)
	c1 := New(Config{SpillDir: dir, KeepSpill: true})
	c1.Get(specA)
	c1.Close()
	old := filepath.Join(dir, spillName(specA.Identity()))
	renamed := filepath.Join(dir, spillName(specB.Identity()))
	if err := os.Rename(old, renamed); err != nil {
		t.Fatal(err)
	}

	c2 := New(Config{SpillDir: dir, KeepSpill: true})
	defer c2.Close()
	if tr := c2.Get(specA).Columns(); tr.Name != specA.Name {
		t.Errorf("Get(A) returned %q", tr.Name)
	}
	if tr := c2.Get(specB).Columns(); tr.Name != specB.Name {
		t.Errorf("Get(B) returned %q", tr.Name)
	}
	st := c2.Stats()
	if st.SpillLoads != 1 || st.Builds != 1 {
		t.Errorf("spill loads/builds = %d/%d, want 1/1", st.SpillLoads, st.Builds)
	}
}

// TestCorruptSpillFallsBackToBuild flips payload bytes in a kept spill
// file; the next cache must reject it on checksum and rebuild.
func TestCorruptSpillFallsBackToBuild(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("corrupt", 4_000)
	c1 := New(Config{SpillDir: dir, KeepSpill: true})
	c1.Get(spec)
	c1.Close()
	path := filepath.Join(dir, spillName(spec.Identity()))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x55
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := New(Config{SpillDir: dir})
	defer c2.Close()
	e := c2.Get(spec)
	st := c2.Stats()
	if st.Builds != 1 || st.SpillLoads != 0 || st.SpillErrors != 1 {
		t.Errorf("builds/loads/errors = %d/%d/%d, want 1/0/1", st.Builds, st.SpillLoads, st.SpillErrors)
	}
	if e.Columns().Name != spec.Name || e.Columns().Len() == 0 {
		t.Error("fallback build produced a wrong or empty trace")
	}
}

// TestTruncatedSpillRejectedAtPreload truncates a file inside the header:
// New must index it as stale and Close with KeepSpill must prune it
// while retaining valid files.
func TestTruncatedSpillRejectedAtPreload(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("trunc", 4_000)
	c1 := New(Config{SpillDir: dir, KeepSpill: true})
	c1.Get(spec)
	c1.Close()
	valid := filepath.Join(dir, spillName(spec.Identity()))
	// A stale-format file (bare payload, no header) and a near-empty stub.
	stale := filepath.Join(dir, "stale"+spillExt)
	data, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, data[:4], 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := New(Config{SpillDir: dir, KeepSpill: true})
	if n := len(c2.spilled); n != 1 {
		t.Errorf("preloaded %d identities, want 1", n)
	}
	c2.Get(spec)
	if st := c2.Stats(); st.Builds != 0 {
		t.Errorf("builds = %d, want 0 (valid file must still load)", st.Builds)
	}
	c2.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale-format file not pruned by KeepSpill Close")
	}
	if _, err := os.Stat(valid); err != nil {
		t.Errorf("valid spill file not retained: %v", err)
	}
}

// TestReadOnlySpillDirNotCreated: only a KeepSpill cache creates its
// directory. A cache that only reads a directory that does not exist
// leaves it absent and counts a spill error, so a mistyped warm-start path
// is not silently a cold run.
func TestReadOnlySpillDirNotCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "typo")
	c := New(Config{SpillDir: dir})
	c.Get(testSpec("missing-dir", 4_000))
	c.Close()
	if _, err := os.Stat(filepath.Dir(dir)); !os.IsNotExist(err) {
		t.Errorf("a read-only cache created %s (stat: %v)", filepath.Dir(dir), err)
	}
	if st := c.Stats(); st.SpillErrors != 1 || st.Builds != 1 {
		t.Errorf("spill errors/builds = %d/%d, want 1/1", st.SpillErrors, st.Builds)
	}
}

// TestSpillDirCreated covers the silent-drop bug: a nested, nonexistent
// SpillDir must be created up front so the KeepSpill flush has somewhere
// to write.
func TestSpillDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "spill")
	c := New(Config{SpillDir: dir, KeepSpill: true})
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("spill dir not created: %v", err)
	}
	c.Get(testSpec("mkdir-a", 4_000))
	c.Close()
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Errorf("KeepSpill Close wrote %d spill files into the created dir, want 1", len(names))
	}
	if st := c.Stats(); st.SpillErrors != 0 {
		t.Errorf("spill errors = %d, want 0", st.SpillErrors)
	}
}

// TestSpillLeavesNoTempFiles checks the atomic write path: after a
// KeepSpill flush, only finished .blbptrc files remain in the directory.
func TestSpillLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{SpillDir: dir, KeepSpill: true})
	c.Get(testSpec("tmp-a", 4_000))
	c.Get(testSpec("tmp-b", 4_000))
	c.Close()
	names, _ := os.ReadDir(dir)
	if len(names) != 2 {
		t.Errorf("%d files after flushing two traces, want 2", len(names))
	}
	for _, de := range names {
		if filepath.Ext(de.Name()) != spillExt {
			t.Errorf("stray non-spill file %q after spill", de.Name())
		}
	}
}

// TestCloseKeepSpillPrunesOrphanTemps simulates a crash mid-write: a
// leftover temp file must be removed by a KeepSpill Close.
func TestCloseKeepSpillPrunesOrphanTemps(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "spill-12345678.tmp")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{SpillDir: dir, KeepSpill: true})
	c.Get(testSpec("orphan", 4_000))
	c.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphan temp file not pruned by KeepSpill Close")
	}
}

func TestEntryMemoizesDerivedArtifacts(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	e := c.Get(testSpec("derived", 5_000))
	if e.Stats() != e.Stats() {
		t.Error("Stats not memoized")
	}
	tp1, err := e.Tape()
	if err != nil {
		t.Fatal(err)
	}
	tp2, _ := e.Tape()
	if tp1 != tp2 {
		t.Error("Tape not memoized")
	}
	if tp1.Instructions() <= 0 {
		t.Errorf("tape instructions = %d", tp1.Instructions())
	}
}

// TestSpillFilePublishedMode covers the private-file bug: spill files used
// to inherit CreateTemp's 0600 mode through the rename, so a cache shared
// across users could never warm-start from them. The atomic writer must
// republish at 0644.
func TestSpillFilePublishedMode(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{SpillDir: dir, KeepSpill: true})
	spec := testSpec("mode", 4_000)
	c.Get(spec)
	c.Close()
	fi, err := os.Stat(filepath.Join(dir, spillName(spec.Identity())))
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Errorf("published spill file mode %o, want 644", perm)
	}
}

// TestPreloadSurfacesCorruptFiles covers the swallowed-error bug: the
// preload used to silently skip files whose header failed to read or decode, so a
// wiped-out warm-start directory looked like a cold cache. The failures
// must count in Stats.SpillErrors (and log once) while the files are still
// remembered as stale for pruning.
func TestPreloadSurfacesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "garbage"+spillExt), []byte("not a spill"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "empty"+spillExt), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{SpillDir: dir})
	defer c.Close()
	if st := c.Stats(); st.SpillErrors != 2 {
		t.Errorf("SpillErrors = %d after preloading 2 corrupt files, want 2", st.SpillErrors)
	}
}

// TestLegacySpillIsCountedMiss pins the miss rule for older spill formats:
// an SPL2 file (no fingerprint field) in the spill directory is a counted
// spill error at preload, never served, rebuilt from the generator, and
// pruned by a KeepSpill Close.
func TestLegacySpillIsCountedMiss(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("legacy-miss", 5_000)
	// An SPL2 header as an older process wrote it: magic, name, seed,
	// budget, record count — and a first block that never gets read.
	data := append([]byte("BLBPSPL2"), byte(len(spec.Name)))
	data = append(data, spec.Name...)
	data = binary.AppendUvarint(data, uint64(spec.Seed))
	data = binary.AppendUvarint(data, uint64(spec.Instructions))
	data = binary.AppendUvarint(data, 1)
	data = append(data, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	legacy := filepath.Join(dir, "legacy"+spillExt)
	if err := os.WriteFile(legacy, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c := New(Config{SpillDir: dir, KeepSpill: true})
	if st := c.Stats(); st.SpillErrors != 1 {
		t.Errorf("spill errors after preload = %d, want 1", st.SpillErrors)
	}
	if got := c.Get(spec).Columns(); got.Name != spec.Name || got.Len() == 0 {
		t.Fatalf("Get served %q with %d records", got.Name, got.Len())
	}
	if st := c.Stats(); st.Builds != 1 || st.SpillLoads != 0 {
		t.Errorf("builds/spill loads = %d/%d, want 1/0 (legacy file must rebuild)", st.Builds, st.SpillLoads)
	}
	c.Close()
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Error("legacy spill file not pruned by KeepSpill Close")
	}
}

// TestZeroFingerprintSpillNotServedToOtherParams is the regression test for
// the retired fingerprint-0 wildcard: an SPL3 file written for a sibling
// spec with the same name, seed and budget but fingerprint 0 must never be
// served to a request whose parameters carry a nonzero fingerprint.
func TestZeroFingerprintSpillNotServedToOtherParams(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec("zero-fp", 4_000)
	if spec.Fingerprint == 0 {
		t.Fatal("test spec should carry a parameter fingerprint")
	}
	sibling := workload.NewSpec(spec.Name, "T", spec.Seed, spec.Instructions, 0, func(rng *rand.Rand) workload.Model {
		return workload.MonoParams{Sites: 8, Work: 10}.New(rng)
	})
	c1 := New(Config{SpillDir: dir, KeepSpill: true})
	siblingLen := c1.Get(sibling).Columns().Len()
	c1.Close()

	c2 := New(Config{SpillDir: dir, KeepSpill: true})
	defer c2.Close()
	got := c2.Get(spec).Columns()
	want := spec.Build()
	if got.Len() != want.Len() {
		t.Fatalf("served %d records, want %d (the sibling has %d)", got.Len(), want.Len(), siblingLen)
	}
	for i := 0; i < got.Len(); i++ {
		if got.Record(i) != want.Record(i) {
			t.Fatalf("record %d differs from the requested spec's trace", i)
		}
	}
	if st := c2.Stats(); st.Builds != 1 || st.SpillLoads != 0 {
		t.Errorf("builds/spill loads = %d/%d, want 1/0", st.Builds, st.SpillLoads)
	}
}

// TestFingerprintDistinguishesSpills: two workloads sharing a name, seed,
// and budget but differing in generator parameters must get distinct spill
// files and never serve each other's traces.
func TestFingerprintDistinguishesSpills(t *testing.T) {
	dir := t.TempDir()
	specA := testSpec("same-name", 4_000)
	specB := wspec.Leaf("same-name", "T", 4_000, workload.MonoParams{Sites: 8, Work: 10})
	if specA.Identity() == specB.Identity() {
		t.Fatal("identities should differ by fingerprint")
	}
	if spillName(specA.Identity()) == spillName(specB.Identity()) {
		t.Fatal("spill names should differ by fingerprint")
	}

	c1 := New(Config{SpillDir: dir, KeepSpill: true})
	refA := c1.Get(specA).Columns().Len()
	refB := c1.Get(specB).Columns().Len()
	c1.Close()

	c2 := New(Config{SpillDir: dir, KeepSpill: true})
	defer c2.Close()
	gotA := c2.Get(specA).Columns().Len()
	gotB := c2.Get(specB).Columns().Len()
	st := c2.Stats()
	if st.Builds != 0 || st.SpillErrors != 0 {
		t.Errorf("builds/spill errors = %d/%d, want 0/0", st.Builds, st.SpillErrors)
	}
	if gotA != refA || gotB != refB {
		t.Errorf("warm lengths %d/%d, want %d/%d", gotA, gotB, refA, refB)
	}
}
