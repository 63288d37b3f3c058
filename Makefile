GO ?= go

.PHONY: all build test lint ci bench micro profile results

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static gate: go vet plus the repo's five per-package invariant analyzers
# (cmd/blbplint: determinism, hwbudget, satweights, atomics, hotalloc). The
# machine-readable findings report, suppressed entries included and paths
# relative to the repository root, lands in results/lint.json; CI fails
# when the committed copy differs from what this target writes.
lint:
	$(GO) vet ./...
	@mkdir -p results
	$(GO) run ./cmd/blbplint -jsonout results/lint.json ./...

# Full CI gate: lint + build + examples run + race-enabled tests + perfbench
# vet/test/lint + fuzz smoke + gofmt -s.
ci:
	sh scripts/ci.sh

# The contract benchmark (perfbench/, see perfbench/README.md): every
# workload end to end, medians with quartiles and the stage ledger, written
# to .bench_build/report.json.
bench:
	bash perfbench/run.sh -out .bench_build/report.json

# CPU + allocation profiles of one serial §5.1 headline run, for pprof.
profile:
	$(GO) run ./cmd/experiments -base 150000 -parallel 1 \
		-cpuprofile cpu.pprof -memprofile mem.pprof overall
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof cpu.pprof"

# Fine-grained microbenchmarks (predictors, batch serving and its pool
# recycle cycle, replay, the hashed perceptron's tape memo and VPC pass,
# trace building and decoding) with allocation stats.
micro:
	$(GO) test -run xxx -bench 'BenchmarkPredict$$|BenchmarkPredictUpdate|BenchmarkOnCond' -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkFolded|BenchmarkFoldFromScratch' -benchmem ./internal/history/
	$(GO) test -run xxx -bench 'BenchmarkServing|BenchmarkPoolDrain' -benchmem ./internal/batch/
	$(GO) test -run xxx -bench 'BenchmarkSimRun|BenchmarkTapeReplay|BenchmarkTapeMemo|BenchmarkVPCPass' -benchmem ./internal/sim/
	$(GO) test -run xxx -bench 'BenchmarkDrawCDF' -benchmem ./internal/workload/
	$(GO) test -run xxx -bench 'BenchmarkSpecBuild' -benchmem ./internal/wspec/
	$(GO) test -run xxx -bench 'BenchmarkWriteSpill|BenchmarkReadSpill' -benchmem ./internal/trace/
	$(GO) test -run xxx -bench 'Throughput|EndToEnd' -benchmem .

# Regenerate the committed results (full-scale instruction base). The
# kept spill directory makes repeated regenerations warm-start: every run
# after the first decodes the suite's traces from .blbpspill/ instead of
# re-running the generators (the CSVs are byte-identical either way).
results:
	$(GO) run ./cmd/experiments -base 600000 -csv results \
		-cachespill .blbpspill -cachekeep all
