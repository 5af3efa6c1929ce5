package repro

import (
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var (
	faultSummaryRE = regexp.MustCompile(`(?m)^fault injection: (fault: seed=\d+ injected=(\d+).*)$`)
	resumedRE      = regexp.MustCompile(`(?m)^  resumed (\d+) task\(s\) from checkpoint$`)
)

// TestChaosEndToEnd runs the resilience layer under seeded, replayable
// fault schedules through the built commands (race-enabled when this test
// binary is): retries absorbing injected read faults, kills and latency
// bit-identically at any worker count, the schedule replaying from its
// seed, a systemic fault failing the run with its cause, an HTTP fleet
// outliving a dead peer, crash → resume from the checkpoint journal, an
// injected bit flip failing the run as corruption, and a corrupted shard
// failing strict reads but degrading deterministically under
// -allow-partial.
func TestChaosEndToEnd(t *testing.T) {
	bin := commandBins(t)
	work := t.TempDir()
	corpusDir, packs := filepath.Join(work, "corpus"), filepath.Join(work, "packs")
	runCommand(t, bin+"corpusgen", "-spec", "text", "-scale", "0.0005", "-out", corpusDir)
	// Small units over small shards: every shard is its own task, so a
	// 4-worker fleet has real contention and -allow-partial has a real
	// blast-radius boundary to respect.
	runCommand(t, bin+"reshape", "-in", corpusDir, "-pack", "-out", packs, "-unit", "4000", "-shard", "32768")

	pipeline := bin + "pipeline"
	measure := func(extra ...string) []string {
		return append([]string{"-packs", packs, "-measure", "-measure-only", "-grep", "the,and"}, extra...)
	}
	// faultSummary returns the injector's summary line and its count.
	faultSummary := func(t *testing.T, m measured) (string, int) {
		t.Helper()
		s := faultSummaryRE.FindStringSubmatch(m.out)
		if s == nil {
			t.Fatalf("run reported no injector summary:\n%s", m.out)
		}
		n, _ := strconv.Atoi(s[2])
		return s[1], n
	}
	const spec = "seed=7,readerr=0.05,kill=0.05,latencyrate=0.1,latency=1ms"

	var base string
	if !t.Run("clean baseline", func(t *testing.T) {
		base = runPipeline(t, pipeline, measure()...).fingerprint
	}) {
		return
	}

	// A chaos run that injects nothing proves nothing, so each faulted run
	// must also show the injector fired.
	t.Run("bit-identical under faults at 1, 2 and 4 workers", func(t *testing.T) {
		for _, w := range []string{"1", "2", "4"} {
			m := runPipeline(t, pipeline, measure("-workers", w, "-max-attempts", "8", "-fault", spec)...)
			if m.fingerprint != base {
				t.Errorf("-workers %s under faults: fingerprint %s, clean %s\n%s", w, m.fingerprint, base, m.out)
			}
			if _, injected := faultSummary(t, m); injected == 0 {
				t.Errorf("-workers %s: the fault schedule injected nothing\n%s", w, m.out)
			}
		}
	})

	// Every fault *decision* is keyed on (site, key, attempt), not wall
	// clock or interleaving — but how many decisions a run asks for is
	// not. A stolen straggler (the spec's 1 ms latency faults can make one
	// out of a sub-millisecond task) re-reads its task's files and
	// advances their attempt counters; so does a task's own scan fan-out,
	// where whether the file next to an injected read error was already
	// opened when the task aborted is a race (1 run in 40, at -workers 1).
	// One worker scanning serially (GOMAXPROCS=1 — the fan-out's default)
	// asks for the same decisions in the same order every time, so there
	// the summary line is a pure function of the seed; the 1-, 2- and
	// 4-worker runs above already pinned the fingerprint.
	t.Run("the schedule replays from its seed", func(t *testing.T) {
		args := measure("-workers", "1", "-max-attempts", "8", "-fault", spec)
		first, _ := faultSummary(t, runPipelineEnv(t, []string{"GOMAXPROCS=1"}, pipeline, args...))
		replay, _ := faultSummary(t, runPipelineEnv(t, []string{"GOMAXPROCS=1"}, pipeline, args...))
		if first != replay {
			t.Errorf("fault schedule not replayable:\n  first:  %s\n  replay: %s", first, replay)
		}
	})

	// A systemic fault (every read fails) ends the run as soon as one task
	// has used its attempts, and the error names the fault that did it.
	t.Run("a systemic fault fails fast and names its cause", func(t *testing.T) {
		out := failCommand(t, pipeline, 1, measure("-workers", "2", "-fault", "seed=1,readerr=1")...)
		if !strings.Contains(out, "injected read error") {
			t.Errorf("the failure does not name the injected fault:\n%s", out)
		}
	})

	// The coordinator quarantines the ghost, declares it dead after failed
	// probes, and the survivor finishes bit-identically. The ghost's road
	// to "dead" is two attempts of four refused connections each (at most
	// 35 ms of back-off per attempt), then three failed probes 50 ms
	// apart: under 250 ms. The live daemon sleeps 50 ms on each of its ~77
	// file reads, two at a time, so the run lasts about 2 s by
	// construction, and the ghost is declared dead by its probes mid-run,
	// not left at one failed attempt when the run ends.
	t.Run("an HTTP fleet outlives a dead peer", func(t *testing.T) {
		live := startDaemon(t, bin+"worker", "-packs", packs, "-addr", "127.0.0.1:0", "-name", "live",
			"-fault", "seed=11,latencyrate=1,latency=50ms")
		// A port that was just listening and no longer is refuses connections.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ghost := l.Addr().String()
		l.Close()

		m := runPipeline(t, pipeline, measure("-worker-addrs", live.addr+","+ghost)...)
		if m.fingerprint != base {
			t.Errorf("fleet with a dead peer: fingerprint %s, clean %s\n%s", m.fingerprint, base, m.out)
		}
		ghostLine := regexp.MustCompile(`(?m)^  worker http://` + regexp.QuoteMeta(ghost) + `: \d+ started, 0 won, .*\(died; tasks re-dispatched\)$`)
		if !ghostLine.MatchString(m.out) {
			t.Errorf("the peer at %s was not declared dead with 0 tasks won:\n%s", ghost, m.out)
		}
		live.terminate(t)
	})

	// The first run's injected kills exhaust a single-attempt budget
	// partway through; completed tasks are already journaled. The resumed
	// run must skip them and land on the clean fingerprint.
	t.Run("crash then resume", func(t *testing.T) {
		journal := filepath.Join(work, "scan.journal")
		failCommand(t, pipeline, 1, measure("-workers", "1", "-checkpoint", journal, "-max-attempts", "1", "-fault", "seed=5,kill=0.9")...)
		if st, err := os.Stat(journal); err != nil || st.Size() == 0 {
			t.Fatalf("crashed run left no checkpoint journal (%v)", err)
		}
		m := runPipeline(t, pipeline, measure("-workers", "1", "-checkpoint", journal, "-resume")...)
		if m.fingerprint != base {
			t.Errorf("resumed run: fingerprint %s, clean %s\n%s", m.fingerprint, base, m.out)
		}
		if r := resumedRE.FindStringSubmatch(m.out); r == nil || r[1] == "0" {
			t.Errorf("resume skipped no journaled task:\n%s", m.out)
		}
	})

	// A flipped bit is data that no longer matches its stored sum: the
	// read that meets it fails the run instead of skewing the result.
	t.Run("an injected bit flip fails the run as corruption", func(t *testing.T) {
		if out := failCommand(t, pipeline, 1, measure("-fault", "seed=1,bitflip=1")...); !strings.Contains(out, "corrupt") {
			t.Errorf("the failure does not mention corruption:\n%s", out)
		}
	})

	// Last, because it damages the shards: flip one payload byte on disk
	// (offset 200 sits inside the first member's payload: 8 B pack header
	// + 16 B record prefix + name, then ~4000 B of unit content).
	t.Run("a corrupted shard fails strict and degrades deterministically", func(t *testing.T) {
		shards, err := filepath.Glob(filepath.Join(packs, "*.pack"))
		if err != nil || len(shards) == 0 {
			t.Fatalf("no shards under %s (%v)", packs, err)
		}
		sort.Strings(shards)
		flipByte(t, shards[len(shards)-1], 200)

		if out := failCommand(t, pipeline, 1, measure()...); !strings.Contains(out, "corrupt") {
			t.Errorf("strict failure does not mention corruption:\n%s", out)
		}
		var degraded string
		for _, w := range []string{"1", "2"} {
			m := runPipeline(t, pipeline, measure("-allow-partial", "-workers", w)...)
			if !strings.Contains(m.out, "DEGRADED RESULT") {
				t.Errorf("degraded -workers %s run printed no manifest:\n%s", w, m.out)
			}
			if degraded == "" {
				degraded = m.fingerprint
			} else if m.fingerprint != degraded {
				t.Errorf("degraded fingerprint differs across worker counts: %s vs %s", m.fingerprint, degraded)
			}
		}
		if degraded == base {
			t.Error("degraded fingerprint equals the clean one — nothing was skipped")
		}
	})
}

// flipByte inverts the byte at off in the file at path, in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
