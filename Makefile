# Developer entry points. `make verify` is the gate CI and pre-commit run;
# `make bench-smoke` proves every `go test` benchmark still executes. The
# benchmark that judges PRs is benchmark/ (BENCHMARK.json, run with
# `bash benchmark/run.sh`).

GO ?= go

.PHONY: all build test test-nommap test-scandebug verify verify-quick size fuzz-smoke bench-smoke bench-kernels bench-pack bench-import bench-serve bench-dist bench-repo-test chaos-smoke resilience-matrix clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-nommap exercises the portable packstore fallback (pread into a
# private buffer instead of mmap) that non-unix builds get unconditionally,
# and the portable directory walk (walk_other.go) the same tag selects:
# internal/cli's Open table runs every corpus source and use over it. The
# engine (internal/scan, internal/core) scans vfs files, so its raw-view
# tests run here over the fallback's heap copies too.
test-nommap:
	$(GO) test -tags packstore_nommap ./internal/packstore ./internal/vfs ./internal/cli ./internal/scan ./internal/core

# test-scandebug runs the scan suite with recycled block buffers poisoned
# (0xDB) so a kernel that retains a borrowed Block slice fails loudly.
# internal/packstore and internal/vfs ride along: the same tag poisons the
# small-file slabs a mapped -dir import releases at close, and the mapped
# imports (packs and -dir) are exercised under the poison build. So does
# internal/dist: the tag poisons each receive buffer the coordinator
# releases after restoring its states, so a Restore that keeps a slice of
# the state bytes instead of copying them breaks the bit-identity tests.
test-scandebug:
	$(GO) test -tags scandebug ./internal/scan ./internal/packstore ./internal/vfs ./internal/dist

# verify is the tier-1 gate: gofmt and vet clean, and the full suite
# race-clean. The ./... wildcard covers every package, including
# internal/packstore's shared-handle concurrency and torn-pack tests and
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

# size prints the counts ROADMAP.md's Size section tracks: non-test Go
# lines under internal/ and cmd/, test lines outside benchmark/, the
# entries of the API guard's allowlist (api_guard_test.go), and the
# command-line flags the commands register (flag.X / fs.XVar calls).
size:
	@echo "non-test Go lines under internal/ + cmd/: $$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "test lines outside benchmark/: $$(find . -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"
	@echo "apiAllowlist entries: $$(awk '/^var apiAllowlist = /{on=1; next} on && /^}/{on=0} on && /^\t"/{n++} END{print n+0}' api_guard_test.go)"
	@echo "command-line flags under cmd/ + internal/cli: $$(grep -rhoE '\b(flag|fs)\.((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?|Var|TextVar|Func|BoolFunc)\(' --include='*.go' --exclude='*_test.go' cmd internal/cli | wc -l)"

# fuzz-smoke gives each fuzz target that decodes or scans outside bytes a
# short budget of fresh inputs: the analyzer against the whole-document
# oracle in textproc/tokentest (statistics, word tokens, out-of-vocabulary
# count) at window-straddling block sizes, the lexicon key set against the
# oracle's lexicon lookup, both searcher engines (and the checksum their FeedSum
# carries) against the reference walk in multisearch_ref_test.go and
# hash/fnv, on fixed pattern sets and on sets drawn from the input that
# land on both sides of the bitap stride budget, every production
# kernel's Restore against arbitrary states,
# the record codec's two readers (a worker's answer, journal replay)
# against hostile frames, the pack readers (Open, OpenReader)
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
# measurement. Benchmarks live beside the code they time; the paper's
# figures and ablations are experiments (cmd/experiments), not benchmarks.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# bench-kernels measures every per-kernel throughput benchmark
# (internal/textproc's BenchmarkKernel*PerMB: checksum, match, the checksum
# carried by the matcher under scan.Run, statistics, statistics with the
# lexicon) on one core, over 1 MiB of each of three text shapes. Single
# samples swing ±15 % on a shared host: read the best of the -count runs.
bench-kernels:
	$(GO) test -run '^$$' -bench 'Kernel.*PerMB' -benchtime 20x -cpu 1 -count 5 ./internal/textproc

# bench-pack measures just the packstore paths (write, verify — the unit
# shape in BenchmarkPackVerifyUnits — and O(1) random access) and the
# reshape that feeds them: 12 000 files on disk imported, reshaped and
# exported as packs (internal/core's BenchmarkReshapeExport12k).
bench-pack:
	$(GO) test -run '^$$' -bench 'BenchmarkPack|ReshapeExport12k' ./internal/core ./internal/packstore

# bench-import measures the small-file import grep-smallfiles pays per op:
# a mapped import of 2 000 corpus.Text400K files on disk and its close
# (walk, open, fstat, read, close, name order), warm, with allocations
# (vfs:BenchmarkImportDirMapped), on one core and on two: the loads run
# beside the walk, which only a second core can overlap. B/op and
# allocs/op repeat to within a few per cent; ns/op swings like any 2-core
# sample.
bench-import:
	$(GO) test -run '^$$' -bench BenchmarkImportDirMapped -benchmem -cpu 1,2 -count 5 ./internal/vfs

# bench-serve measures the resident daemon's per-request cost without the
# network: one request of each kind serve-mixed sends (grep with the
# eight-pattern set, measure with complexity, manifest, stats) through
# Handler().ServeHTTP over a 1 000-file corpus.Text400K pack, mapped,
# with allocations (server:BenchmarkServeRequest).
bench-serve:
	$(GO) test -run '^$$' -bench BenchmarkServeRequest -benchmem ./internal/server

# bench-dist measures one distributed measurement's cost end to end in
# one process: a 2 000-file corpus.Text400K corpus packed one member per
# entry into 256 KiB shards and mapped, two WorkerServers behind httptest
# servers, the eight-pattern set with complexity, with allocations
# (dist:BenchmarkDistMeasure). B/op covers the workers' scans, the wire
# and the coordinator's fold.
bench-dist:
	$(GO) test -run '^$$' -bench BenchmarkDistMeasure -benchmem ./internal/dist

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

# resilience-matrix is dist:TestRecoveryMatrix at 20 seeds a cell: each
# fault schedule (chaos, read errors, transport faults, a dead peer,
# every read failing, every attempt killed) on 1, 2 and 4 in-process
# workers and 2 HTTP workers, with every recovery mechanism on and then
# each of retry in place, quarantine and re-admission switched off. It
# prints success, bit-identity, makespan p50/IQR and attempts a cell
# (≈ 5 minutes on two cores); DESIGN.md §11.1 carries its table.
resilience-matrix:
	$(GO) test -count=1 -timeout 30m -run TestRecoveryMatrix -v ./internal/dist -matrix.seeds=20

clean:
	$(GO) clean ./...
