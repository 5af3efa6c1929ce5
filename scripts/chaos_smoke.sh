#!/usr/bin/env bash
# Chaos smoke: the resilience layer under a seeded, replayable fault
# schedule. Builds race-enabled binaries, packs a small corpus, then
# asserts, in order:
#
#   1. a clean baseline fingerprint;
#   2. bit-identical fingerprints under injected read faults, kills and
#      latency at 1, 2 and 4 workers — retries absorb every fault;
#   3. replayability: the same seed injects the identical fault schedule
#      (on one worker scanning serially, where the schedule is a pure
#      function of the seed, the injector summary lines match across runs);
#   4. an HTTP fleet with one dead address still completes bit-identically
#      after the coordinator declares the ghost dead;
#   5. crash/resume: a run killed mid-flight by injected task kills leaves
#      a checkpoint journal; the resumed run skips the journaled tasks and
#      lands on the same fingerprint;
#   6. degraded results: a corrupted shard fails a -verify-reads run
#      loudly, while -allow-partial skips exactly the damaged task, prints
#      the degraded manifest, and yields the same degraded fingerprint at
#      1 and 2 workers.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

# Race-enabled builds: the whole point of chaos is exercising the retry /
# quarantine / re-dispatch paths concurrently, so run them under the
# detector.
go build -race -o "$work/corpusgen" ./cmd/corpusgen
go build -race -o "$work/reshape" ./cmd/reshape
go build -race -o "$work/pipeline" ./cmd/pipeline
go build -race -o "$work/worker" ./cmd/worker

"$work/corpusgen" -spec text -scale 0.0005 -out "$work/corpus" >/dev/null
# Small units over small shards: every shard is its own task, so a
# 4-worker fleet has real contention and -allow-partial has a real
# blast-radius boundary to respect.
"$work/reshape" -in "$work/corpus" -pack -out "$work/packs" -unit 4000 -shard 32768 >/dev/null

measure="-packs $work/packs -measure -measure-only -grep the,and"
fp() { sed -n 's/^measurement fingerprint: \([0-9a-f]*\).*/\1/p' "$1" | head -n 1; }
fault_line() { sed -n 's/^fault injection: //p' "$1" | head -n 1; }

# 1. Clean baseline.
"$work/pipeline" $measure >"$work/clean.log"
base=$(fp "$work/clean.log")
if [ -z "$base" ]; then
    echo "chaos_smoke: no fingerprint from the clean run" >&2
    cat "$work/clean.log" >&2
    exit 1
fi
echo "chaos_smoke: clean fingerprint $base"

# 2. Seeded faults at 1, 2 and 4 workers: identical fingerprint, and the
#    injector must actually have fired (a chaos run that injects nothing
#    proves nothing).
spec='seed=7,readerr=0.05,kill=0.05,latencyrate=0.1,latency=1ms'
for w in 1 2 4; do
    "$work/pipeline" $measure -workers "$w" -max-attempts 8 -fault "$spec" >"$work/fault$w.log"
    got=$(fp "$work/fault$w.log")
    if [ "$got" != "$base" ]; then
        echo "chaos_smoke: faulted -workers $w fingerprint $got != $base" >&2
        cat "$work/fault$w.log" >&2
        exit 1
    fi
    if ! grep -q 'injected=' "$work/fault$w.log"; then
        echo "chaos_smoke: faulted -workers $w run reported no injector summary" >&2
        cat "$work/fault$w.log" >&2
        exit 1
    fi
    if grep -q 'injected=0' "$work/fault$w.log"; then
        echo "chaos_smoke: fault schedule injected nothing at -workers $w" >&2
        cat "$work/fault$w.log" >&2
        exit 1
    fi
done
echo "chaos_smoke: bit-identical under faults at 1/2/4 workers ($(fault_line "$work/fault2.log"))"

# 3. Replay: the same seed must inject the identical schedule. Every
#    fault *decision* is keyed on (site, key, attempt), not wall clock or
#    interleaving — but how many decisions a run asks for is not. A
#    stolen straggler (the spec's 1 ms latency faults can make one out of
#    a sub-millisecond task) re-reads its task's files and advances their
#    attempt counters; so does a task's own scan fan-out, where whether
#    the file next to an injected read error was already opened when the
#    task aborted is a race (1 run in 40 here, at -workers 1). One worker
#    scanning serially (GOMAXPROCS=1 — the fan-out's default) asks for
#    the same decisions in the same order every time, so there the
#    summary line is a pure function of the seed; the 1-, 2- and
#    4-worker runs above already pinned the fingerprint.
for run in first replay; do
    GOMAXPROCS=1 "$work/pipeline" $measure -workers 1 -max-attempts 8 -fault "$spec" >"$work/$run.log"
done
if [ -z "$(fault_line "$work/first.log")" ] ||
        [ "$(fault_line "$work/replay.log")" != "$(fault_line "$work/first.log")" ]; then
    echo "chaos_smoke: fault schedule not replayable:" >&2
    echo "  first:  $(fault_line "$work/first.log")" >&2
    echo "  replay: $(fault_line "$work/replay.log")" >&2
    exit 1
fi
echo "chaos_smoke: fault schedule replays identically ($(fault_line "$work/first.log"))"

# 4. HTTP fleet with a dead address: the coordinator quarantines the
#    ghost, declares it dead after failed probes, and the survivors
#    finish bit-identically. The ghost's road to "dead" is two attempts
#    of four refused connections each (at most 35 ms of back-off per
#    attempt), then three failed probes 50 ms apart: under 250 ms. The
#    live daemon sleeps 50 ms on each of its ~77 file reads, two at a
#    time, so the run lasts about 2 s by construction rather than by the
#    race detector's slowness, and the ghost is declared dead by its
#    probes mid-run, not left at one failed attempt when the run ends.
"$work/worker" -packs "$work/packs" -addr 127.0.0.1:0 -name live \
    -fault 'seed=11,latencyrate=1,latency=50ms' >"$work/live.log" 2>&1 &
pids="$pids $!"
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's|.*http://\([0-9.:]*\).*|\1|p' "$work/live.log" | head -n 1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "chaos_smoke: worker daemon never reported its address" >&2
    cat "$work/live.log" >&2
    exit 1
fi
# 127.0.0.1:9 (discard) refuses connections: a permanently dead peer.
"$work/pipeline" $measure -worker-addrs "$addr,127.0.0.1:9" >"$work/http.log"
got=$(fp "$work/http.log")
if [ "$got" != "$base" ]; then
    echo "chaos_smoke: fleet-with-dead-peer fingerprint $got != $base" >&2
    cat "$work/http.log" >&2
    exit 1
fi
if ! grep -q 'died; tasks re-dispatched' "$work/http.log"; then
    echo "chaos_smoke: dead peer was never declared dead" >&2
    cat "$work/http.log" >&2
    exit 1
fi
echo "chaos_smoke: HTTP fleet survives a dead peer bit-identically"

# 5. Crash, then resume. The first run's injected kills exhaust a
#    single-attempt budget partway through; completed tasks are already
#    journaled. The resumed run must skip them (resumed > 0) and land on
#    the clean fingerprint.
journal="$work/scan.journal"
if "$work/pipeline" $measure -workers 1 -checkpoint "$journal" \
        -max-attempts 1 -fault 'seed=5,kill=0.9' >"$work/crash.log" 2>&1; then
    echo "chaos_smoke: kill-heavy single-attempt run unexpectedly succeeded" >&2
    cat "$work/crash.log" >&2
    exit 1
fi
if [ ! -s "$journal" ]; then
    echo "chaos_smoke: crashed run left no checkpoint journal" >&2
    exit 1
fi
"$work/pipeline" $measure -workers 1 -checkpoint "$journal" -resume >"$work/resume.log"
got=$(fp "$work/resume.log")
if [ "$got" != "$base" ]; then
    echo "chaos_smoke: resumed fingerprint $got != $base" >&2
    cat "$work/resume.log" >&2
    exit 1
fi
resumed=$(sed -n 's/^  resumed \([0-9]*\) task(s) from checkpoint$/\1/p' "$work/resume.log")
if [ -z "$resumed" ] || [ "$resumed" -lt 1 ]; then
    echo "chaos_smoke: resume skipped no journaled tasks (resumed='$resumed')" >&2
    cat "$work/crash.log" "$work/resume.log" >&2
    exit 1
fi
echo "chaos_smoke: crash left $resumed journaled task(s); resume is bit-identical"

# 6. Degraded results from a corrupted shard. Flip one payload byte on
#    disk (offset 200 sits inside the first member's payload: 8 B pack
#    header + 16 B record prefix + name, then ~4000 B of unit content).
#    -verify-reads must fail loudly; adding -allow-partial must skip
#    exactly the damaged task and degrade deterministically.
victim=$(ls "$work/packs"/*.pack | sort | tail -n 1)
off=200
orig=$(od -An -tu1 -j$off -N1 "$victim" | tr -d ' ')
if [ "$orig" = "255" ]; then rep='\000'; else rep='\377'; fi
printf "$rep" | dd of="$victim" bs=1 seek=$off conv=notrunc 2>/dev/null
if "$work/pipeline" $measure -verify-reads >"$work/strict.log" 2>&1; then
    echo "chaos_smoke: -verify-reads did not fail on a corrupted shard" >&2
    cat "$work/strict.log" >&2
    exit 1
fi
if ! grep -q 'corrupt' "$work/strict.log"; then
    echo "chaos_smoke: strict failure does not mention corruption" >&2
    cat "$work/strict.log" >&2
    exit 1
fi
degraded=""
for w in 1 2; do
    "$work/pipeline" $measure -verify-reads -allow-partial -workers "$w" >"$work/partial$w.log"
    got=$(fp "$work/partial$w.log")
    if [ -z "$got" ]; then
        echo "chaos_smoke: degraded -workers $w run produced no fingerprint" >&2
        cat "$work/partial$w.log" >&2
        exit 1
    fi
    if ! grep -q 'DEGRADED RESULT' "$work/partial$w.log"; then
        echo "chaos_smoke: degraded -workers $w run printed no manifest" >&2
        cat "$work/partial$w.log" >&2
        exit 1
    fi
    if [ -z "$degraded" ]; then
        degraded="$got"
    elif [ "$got" != "$degraded" ]; then
        echo "chaos_smoke: degraded fingerprint differs across worker counts: $got != $degraded" >&2
        exit 1
    fi
done
if [ "$degraded" = "$base" ]; then
    echo "chaos_smoke: degraded fingerprint equals the clean one — nothing was skipped" >&2
    exit 1
fi
echo "chaos_smoke: corrupt shard fails strict, degrades deterministically ($degraded)"

echo "chaos_smoke: OK"
