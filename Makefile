# Developer entry points. `make verify` is the gate CI and pre-commit run;
# `make bench-smoke` proves every `go test` benchmark still executes. The
# benchmark that judges PRs is benchmark/ (BENCHMARK.json, run with
# `bash benchmark/run.sh`).

GO ?= go

.PHONY: all build test test-nommap test-scandebug verify verify-quick fuzz-smoke bench-smoke bench-kernels bench-pack bench-serve bench-repo-test chaos-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-nommap exercises the portable packstore fallback (pread into a
# private buffer instead of mmap) that non-unix builds get unconditionally.
test-nommap:
	$(GO) test -tags packstore_nommap ./internal/packstore ./internal/vfs

# test-scandebug runs the scan suite with recycled block buffers poisoned
# (0xDB) so a kernel that retains a borrowed Block slice fails loudly.
# internal/vfs rides along so the mapped imports (packs and -dir) are
# exercised under the same poison build.
test-scandebug:
	$(GO) test -tags scandebug ./internal/scan ./internal/vfs

# verify is the tier-1 gate: gofmt and vet clean, and the full suite
# race-clean. The ./... wildcard covers every package, including
# internal/packstore's shared-handle concurrency and recovery tests and
# the root package's TestCommandsEndToEnd and TestChaosEndToEnd, which
# build the commands (with -race, because the test binary has it) and
# drive serve, pipeline and worker daemons as child processes.
verify:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) test -race ./...

# verify-quick is the inner-loop gate: a full build plus the suite without
# the race detector. Minutes faster than verify; run verify before pushing.
verify-quick:
	$(GO) build ./...
	$(GO) test ./...

# fuzz-smoke gives each fuzz target that decodes or scans outside bytes a
# short budget of fresh inputs: the analyzer against Analyze, Tokenize
# and TagText at window-straddling block sizes, the lexicon key set
# against the map, both searcher engines (and the checksum their FeedSum
# carries) against the reference walk in multisearch_ref_test.go and
# hash/fnv, on fixed pattern sets and on sets drawn from the input that
# land on both sides of the bitap stride budget, every production
# kernel's Restore against arbitrary states,
# the record codec's two readers (a worker's answer, journal replay)
# against hostile frames, the pack readers (Open, OpenReader, RecoverCtx)
# against arbitrary files (typed refusals, typed verify failures), the
# fault spec parser against arbitrary specs (ErrInvalid or a config New
# accepts), and the serve request decoders (any body to grep, measure and
# verify answers a typed status, never a panic or a 500). The committed
# seeds already run under plain `go test`. (go test takes one package and
# one -fuzz target per run.)
fuzz-smoke:
	for target in \
		./internal/textproc:FuzzStreamAnalyzerBlockSplit \
		./internal/textproc:FuzzKnownWord \
		./internal/textproc:FuzzMultiSearcherBlockSplit \
		./internal/textproc:FuzzMultiSearcherPatterns \
		./internal/textproc:FuzzKernelRestore \
		./internal/dist:FuzzRecord \
		./internal/packstore:FuzzPackOpen \
		./internal/fault:FuzzParseSpec \
		./internal/server:FuzzServeRequest; do \
		$(GO) test "$${target%%:*}" -run '^$$' -fuzz "^$${target##*:}\$$" -fuzztime 10s || exit 1; \
	done

# bench-smoke runs every benchmark exactly once — an execution check, not a
# measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# bench-kernels measures every per-kernel throughput benchmark in the root
# package (BenchmarkKernel*PerMB: checksum, match, the checksum carried by
# the matcher under scan.Run, statistics, statistics with the lexicon) on
# one core, over 1 MiB of each of three text shapes. Single samples swing
# ±15 % on a shared host: read the best of the -count runs.
bench-kernels:
	$(GO) test -run '^$$' -bench 'Kernel.*PerMB' -benchtime 20x -cpu 1 -count 5 .

# bench-pack measures just the packstore paths (write, verify — the unit
# shape in BenchmarkPackVerifyUnits — and O(1) random access) and the
# reshape that feeds them: 12 000 files on disk imported, reshaped and
# exported as packs (BenchmarkReshapeExport12k, root package).
bench-pack:
	$(GO) test -run '^$$' -bench 'BenchmarkPack|ReshapeExport12k' . ./internal/packstore

# bench-serve measures the resident daemon's per-request cost without the
# network: one request of each kind serve-mixed sends (grep with the
# eight-pattern set, measure with complexity, manifest, stats) through
# Handler().ServeHTTP over a 1 000-file corpus.Text400K pack, mapped,
# with allocations (server:BenchmarkServeRequest).
bench-serve:
	$(GO) test -run '^$$' -bench BenchmarkServeRequest -benchmem ./internal/server

# bench-repo-test runs the repository benchmark harness's own tests
# (BENCHMARK.json schema, the statistics and verdict arithmetic, a quick
# pass that must emit every declared metric, a corrupted pack that must
# fail the oracle).
# benchmark/ is a separate module (repro/benchmark, `replace repro => ../`),
# so neither `go test ./...` nor `make verify` at the root sees it.
bench-repo-test:
	cd benchmark && $(GO) test ./...

# chaos-smoke is TestChaosEndToEnd on race-built commands: bit-identical
# fingerprints under a seeded, replayable schedule of injected read
# faults, kills and latency at 1/2/4 workers, identical replay of the
# schedule, an HTTP fleet surviving a dead peer, crash → resume from the
# checkpoint journal, and deterministic degraded results from a
# corrupted shard under -allow-partial. Plain `go test ./...` runs the
# same test without the detector; `make verify` runs it with.
chaos-smoke:
	$(GO) test -race -count=1 -run TestChaosEndToEnd .

clean:
	$(GO) clean ./...
