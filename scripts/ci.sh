#!/bin/sh
# CI gate: lint (vet + blbplint) with a drift check of the committed
# results/lint.json, suppression/exceptions audit, build, an examples run,
# race-enabled tests, perfbench vet/test/lint, fuzz smoke, snapshot smokes
# (the monolithic and the two-level IBTB), trace-file, warm-start,
# recycled-set (with the workload characterizations), run-plan, and
# workload-spec round-trip smokes, and a strict gofmt -s check. Run from
# the repository root (or `make ci`).
set -eux

make lint
# The lint report is a committed artifact with paths relative to the
# repository root: a report that make lint would change is stale.
git diff --exit-code results/lint.json
# Suppression audit: every //blbp:allow comment must have a row in
# ANALYSIS_EXCEPTIONS.md and vice versa; drift in either direction fails.
go run ./cmd/blbplint -suppressed -exceptions ANALYSIS_EXCEPTIONS.md ./...
go build ./...
# Examples smoke: the programs under examples/ are the library-API smoke at
# the package boundary. go build compiles them, but a program can compile
# and still panic at run time (the public workload constructors panic on
# invalid parameters), so each one runs and must exit 0.
edir=$(mktemp -d)
for e in examples/*/; do
	go build -o "$edir/example" "./$e"
	"$edir/example" >/dev/null
done
rm -rf "$edir"
# The race-enabled tests are also the ownership gate for the experiments
# pool's three goroutine launch sites: newPool's `go p.worker`, whose
# workers range over the pool's one FIFO task channel, and the submits of
# Runner.RunSuites and Runner.AnalyzeSuite that send tasks into it.
# TestDriverCSVDeterministicAcrossParallelism (8 workers, built-in plans run
# through runspec.Exec) and TestAnalyzeSuiteOrder (2 workers) drive all
# three, and TestPoolRunsEachTaskOnce floods the channel so submits and
# worker receives interleave. TestDriverCSVDeterministicAcrossParallelism and
# TestRecycledSetsDeterministicAcrossWorkers (8 workers each) also cover
# the run plans' free lists of recycled predictor sets, the latter on every
# built-in plan with passes.
go test -race ./...
# perfbench is its own module (it holds the contract benchmark), so the
# root ./... walks above never compile it. Vet, test and lint it here: it
# calls the trace, sim and tracecache APIs directly.
(cd perfbench && go vet ./... && go test ./...)
go run ./cmd/blbplint -dir perfbench ./...
# Bench smoke: every benchmark must run once without failing (catches rot in
# the macro drivers and the shared bench runner without timing anything).
go test -run xxx -bench . -benchtime 1x ./...
# Fuzz smoke: each native fuzz target gets a few seconds of coverage-guided
# input on top of its seed corpus.
go test -fuzz FuzzTraceRoundTrip -fuzztime 5s -run xxx ./internal/trace/
go test -fuzz FuzzSpillDecode -fuzztime 5s -run xxx ./internal/tracecache/
go test -fuzz FuzzRunPlanDecode -fuzztime 5s -run xxx ./internal/runspec/
go test -fuzz '^FuzzWorkloadSpecDecode$' -fuzztime 5s -run xxx ./internal/wspec/
go test -fuzz FuzzBatchEquivalence -fuzztime 5s -run xxx ./internal/batch/
go test -fuzz FuzzColumnarEquivalence -fuzztime 5s -run xxx ./internal/sim/
go test -fuzz FuzzSnapshotRoundTrip -fuzztime 5s -run xxx ./internal/sim/
go test -fuzz FuzzReadContainer -fuzztime 5s -run xxx ./internal/snapshot/
# Replay differential smoke: the seed-corpus differential (the
# record-at-a-time oracle vs sim.Run, tape replay, the consolidated
# predictor, and the spill round trip) must hold without the fuzz engine,
# on the corpus and on a 70,000-record trace of distinct records, whose
# index column widens from 2 to 4 bytes past 65,536 table entries.
go test -run 'TestColumnarEquivalenceSeeds' -count 1 ./internal/sim/
# Snapshot smoke: a run paused mid-trace by -snapshot and resumed by
# -restore in a fresh process must emit a CSV byte-identical to the
# uninterrupted run's. The second run does the same with BLBP's two-level
# IBTB, whose snapshot sections the first run never writes.
sdir=$(mktemp -d)
snapsmoke() {
	go run ./cmd/blbpsim -workload 400.perlbench-1 -base 40000 "$@" \
		-csv "$sdir/full.csv" >/dev/null
	go run ./cmd/blbpsim -workload 400.perlbench-1 -base 40000 "$@" \
		-snapshot "$sdir/run.snp" -snapat 900 >/dev/null
	go run ./cmd/blbpsim -workload 400.perlbench-1 -base 40000 "$@" \
		-restore "$sdir/run.snp" -csv "$sdir/resumed.csv" >/dev/null
	diff "$sdir/full.csv" "$sdir/resumed.csv"
}
snapsmoke -predictors blbp,ittage,combined
snapsmoke -predictors blbp,ittage -config 'blbp={"UseHierarchicalIBTB":true}'
rm -rf "$sdir"
# Trace-file smoke: tracegen writes SPL3 under the spec's identity, the one
# trace file format. blbpsim -trace on the file must render the CSV that
# blbpsim -workload renders at the same -base, and a replay spec of the
# file, registered with experiments -workload-spec, must run in a plan.
tdir=$(mktemp -d)
go run ./cmd/tracegen gen -workload 252.eon -base 4000 -out "$tdir/eon.trc" >/dev/null
go run ./cmd/blbpsim -trace "$tdir/eon.trc" -csv "$tdir/file.csv" >/dev/null
go run ./cmd/blbpsim -workload 252.eon -base 4000 -csv "$tdir/workload.csv" >/dev/null
diff "$tdir/file.csv" "$tdir/workload.csv"
cat >"$tdir/replay.json" <<EOF
{"name": "eon-replay", "category": "USER",
 "generator": {"kind": "replay", "path": "$tdir/eon.trc"}}
EOF
cat >"$tdir/plan.json" <<'EOF'
{
  "name": "ci-replay-plan",
  "suite": {"specs": ["eon-replay"]},
  "passes": [{"predictors": [{"type": "blbp"}, {"type": "ittage"}]}],
  "outputs": [{"table": "mpki", "file": "ci-replay"}]
}
EOF
go run ./cmd/experiments -workload-spec "$tdir/replay.json" \
	-plan "$tdir/plan.json" -csv "$tdir/out" >/dev/null
grep -q "eon-replay" "$tdir/out/ci-replay.csv"
rm -rf "$tdir"
# Warm-start smoke: a second experiments run against a kept spill directory
# must serve every trace from disk (0 generator builds) and emit
# byte-identical CSVs, serially and at -parallel 4. The warm runs decode
# their spill files through the columnar fast path
# (trace.ReadSpillColumns), so this also gates that decoder end to end.
spill=$(mktemp -d); cold=$(mktemp -d); warm=$(mktemp -d)
go run ./cmd/experiments -base 4000 -csv "$cold" \
	-cachespill "$spill" -cachekeep overall >/dev/null
go run ./cmd/experiments -base 4000 -csv "$warm" \
	-cachespill "$spill" -cachekeep -cachestats overall \
	>/dev/null 2>"$warm/stats.txt"
grep -q "trace cache: 0 builds" "$warm/stats.txt"
diff "$cold/overall.csv" "$warm/overall.csv"
# The same warm pass at -parallel 4: four workers decode at once, so they
# share the decoder's free list of recycled states even on a 2-vCPU host.
go run ./cmd/experiments -base 4000 -parallel 4 -csv "$warm/p4" \
	-cachespill "$spill" -cachekeep -cachestats overall \
	>/dev/null 2>"$warm/stats4.txt"
grep -q "trace cache: 0 builds" "$warm/stats4.txt"
diff "$cold/overall.csv" "$warm/p4/overall.csv"
# A run without -cachekeep only reads the directory: it too serves every
# trace from disk, and leaves every spill file where it found it.
kept=$(ls "$spill"/*.blbptrc | wc -l)
test "$kept" -gt 0
go run ./cmd/experiments -base 4000 -cachespill "$spill" -cachestats overall \
	>/dev/null 2>"$warm/readonly.txt"
grep -q "trace cache: 0 builds" "$warm/readonly.txt"
test "$(ls "$spill"/*.blbptrc | wc -l)" -eq "$kept"
rm -rf "$spill" "$cold" "$warm"
# Recycled-set smoke: every run-plan pass Resets and reuses its predictor
# set across workloads. These plans, serially and at -parallel 4, must
# render byte-identical CSVs: fig10's thirteen single-predictor passes;
# extras, whose one pass holds all six standalone baselines (targetcache
# and cascaded among them); cottage's TAGE substrate; combined's
# consolidated predictor, whose indirect view shares its state; latency and
# hierarchy, whose tasks count into their own observation cells while they
# run, so a release copies nothing before the Reset; and overall, which
# runs VPC's full engine beside passes that share one conditional/RAS memo
# per trace, so it also gates the worker queue and the memo's use of the
# engine loop. fig1, fig6 and fig7 run no pass: they gate the per-site
# trace statistics, which the analysis path computes on the same workers.
rdir=$(mktemp -d)
recycled="fig10 extras cottage combined latency hierarchy overall fig1 fig6 fig7"
go run ./cmd/experiments -base 4000 -parallel 1 -csv "$rdir/serial" $recycled >/dev/null
go run ./cmd/experiments -base 4000 -parallel 4 -csv "$rdir/parallel" $recycled >/dev/null
for p in $recycled; do
	diff "$rdir/serial/$p.csv" "$rdir/parallel/$p.csv"
done
rm -rf "$rdir"
# Run-plan round trip: every built-in must dump as valid JSON, and a dumped
# plan re-run via -plan must regenerate the compiled-in CSV byte for byte:
# overall, and the sweeps whose arms builtin.go declares as hand-written
# JSON overrides (arrays' computed ones included).
plans=$(mktemp -d)
for p in table1 table2 fig1 fig6 fig7 overall fig8 fig9 holdout fig10 \
	fig11 extras arrays targetbits combined hierarchy cottage latency seeds; do
	go run ./cmd/experiments -dumpplan "$p" >"$plans/$p.json"
done
roundtrip="overall fig10 fig11 arrays targetbits hierarchy"
go run ./cmd/experiments -base 4000 -csv "$plans/builtin" $roundtrip >/dev/null
for p in $roundtrip; do
	go run ./cmd/experiments -base 4000 -csv "$plans/replay" \
		-plan "$plans/$p.json" >/dev/null
	diff "$plans/builtin/$p.csv" "$plans/replay/$p.csv"
done
# A user-authored plan (subset suite, config-override arm, generic mpki
# table) must run end to end through the same executor.
cat >"$plans/user.json" <<'EOF'
{
  "name": "ci-user-plan",
  "suite": {"workloads": ["252.eon", "400.perlbench-1"]},
  "passes": [
    {"predictors": [
      {"type": "blbp"},
      {"type": "blbp", "name": "no-target-bits", "config": {"GlobalTargetBits": 0}},
      {"type": "ittage"}
    ]}
  ],
  "outputs": [{"table": "mpki", "file": "ci-user"}]
}
EOF
go run ./cmd/experiments -base 4000 -csv "$plans/user" \
	-plan "$plans/user.json" >/dev/null
grep -q "no-target-bits" "$plans/user/ci-user.csv"
grep -q "252.eon" "$plans/user/ci-user.csv"
rm -rf "$plans"
# Workload-spec round trip. Every built-in workload must dump as a spec,
# and a suite listed as registry spec names must reproduce the compiled-in
# suite's CSV byte for byte — serial and parallel — since the built-in
# suite is itself compiled from those same specs.
wdir=$(mktemp -d)
go build -o "$wdir/experiments" ./cmd/experiments
"$wdir/experiments" -list-workloads >"$wdir/names.txt"
test "$(wc -l <"$wdir/names.txt")" -eq 100
while read -r n; do
	"$wdir/experiments" -dumpspec "$n" >"$wdir/spec.json"
	test -s "$wdir/spec.json"
done <"$wdir/names.txt"
names=$(grep -v '^holdout-' "$wdir/names.txt" | sed 's/.*/"&"/' | paste -sd, -)
"$wdir/experiments" -dumpplan overall |
	sed "s/\"suite\": {}/\"suite\": {\"specs\": [$names]}/" >"$wdir/overall_specs.json"
"$wdir/experiments" -base 4000 -csv "$wdir/builtin" overall >/dev/null
"$wdir/experiments" -base 4000 -parallel 4 -csv "$wdir/specs" \
	-plan "$wdir/overall_specs.json" >/dev/null
diff "$wdir/builtin/overall.csv" "$wdir/specs/overall.csv"
# A user-authored spec (phase schedule over a seeded mix, with a drawn
# parameter) plus a renamed dump of a built-in must register through
# -workload-spec, run end to end via a plan's suite "specs", and
# warm-start from the kept spill directory with zero generator builds —
# the spec fingerprint is what keys those spill files.
"$wdir/experiments" -dumpspec 458.sjeng-1 -base 4000 |
	sed 's/"name": "458.sjeng-1"/"name": "sjeng-copy"/' >"$wdir/user_specs.json"
cat >"$wdir/phase_mix.json" <<'EOF'
{
  "name": "ci-phase-mix",
  "category": "USER",
  "instructions": 8000,
  "generator": {
    "kind": "phases",
    "phases": [
      {"until": 4000, "generator": {"kind": "mixed", "parts": [
        {"weight": 3, "seed": 11, "generator": {"kind": "interpreter", "params": {"Opcodes": 24, "ProgramLen": 400, "Work": 110, "CondPerHandler": 3, "CondNoise": 0.01, "DispatchNoise": 0.02, "Bank": 0}}},
        {"weight": 1, "seed": 12, "generator": {"kind": "mono", "params": {"Sites": 12, "Work": 60, "Bank": 1}}}
      ]}},
      {"until": 8000, "generator": {"kind": "vdispatch", "params": {"Classes": 6, "Sites": 4, "Objects": 64, "TypeNoise": 0.01, "MethodWork": 150, "MethodConds": 2, "CondNoise": 0.01, "Bank": 2}, "draw": {"Classes": {"min": 4, "max": 10}}}}
    ]
  }
}
EOF
cat >"$wdir/spec_plan.json" <<'EOF'
{
  "name": "ci-spec-plan",
  "suite": {"specs": ["ci-phase-mix", "sjeng-copy"]},
  "passes": [{"predictors": [{"type": "blbp"}, {"type": "ittage"}]}],
  "outputs": [{"table": "mpki", "file": "ci-spec"}]
}
EOF
sspill=$(mktemp -d)
"$wdir/experiments" -workload-spec "$wdir/user_specs.json" \
	-workload-spec "$wdir/phase_mix.json" -plan "$wdir/spec_plan.json" \
	-csv "$wdir/cold" -cachespill "$sspill" -cachekeep >/dev/null
"$wdir/experiments" -workload-spec "$wdir/user_specs.json" \
	-workload-spec "$wdir/phase_mix.json" -plan "$wdir/spec_plan.json" \
	-csv "$wdir/warm" -cachespill "$sspill" -cachekeep -cachestats \
	>/dev/null 2>"$wdir/stats.txt"
grep -q "trace cache: 0 builds" "$wdir/stats.txt"
diff "$wdir/cold/ci-spec.csv" "$wdir/warm/ci-spec.csv"
grep -q "ci-phase-mix" "$wdir/cold/ci-spec.csv"
grep -q "sjeng-copy" "$wdir/cold/ci-spec.csv"
rm -rf "$wdir" "$sspill"
# gofmt -s: fail with the offending diff so the fix is visible in the log.
fmtdiff=$(gofmt -s -d .)
if [ -n "$fmtdiff" ]; then
	echo "$fmtdiff"
	echo "gofmt -s: files above need formatting" >&2
	exit 1
fi
