package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// BENCHMARK.json must satisfy the contract's shape and name exactly the
// workloads the harness implements.
func TestBenchmarkJSONSchema(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads declared, harness has %d", len(spec.Workloads), len(workloadNames))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", spec.RunSeconds)
	}
	for _, p := range spec.Paths {
		if p != "benchmark" {
			t.Errorf("unexpected path %q", p)
		}
	}

	bad := *spec
	bad.PerLayer = append([]metricSpec(nil), spec.PerLayer...)
	bad.PerLayer[0].Name = "has space"
	if err := bad.validate(); err == nil || !strings.Contains(err.Error(), "bad name") {
		t.Errorf("name with a space: got %v, want a bad-name error", err)
	}
	bad = *spec
	bad.EndToEnd = append([]metricSpec(nil), spec.EndToEnd...)
	bad.EndToEnd[0].Bound = nil
	if err := bad.validate(); err == nil {
		t.Error("end-to-end metric without a bound passed validation")
	}
	half := 0.5
	bad.EndToEnd[0].Bound = &half
	if err := bad.validate(); err == nil {
		t.Error("bound above 0.25 passed validation")
	}
}

// Every workload, on a 300-file corpus, must emit exactly the metrics
// BENCHMARK.json declares — run itself refuses otherwise — pass the
// oracle on every op, and never report an end-to-end metric as 0.
func TestQuickSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 0.3, trace: trace, quick: true,
				workDir: filepath.Join(t.TempDir(), "work"), outDir: out}
			res, err := run(context.Background(), cfg, spec)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				mv, ok := res.Metrics[m.Name]
				if !ok || mv.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", name, trace, m.Name, mv.Unit, m.Unit)
				}
				if !trace && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m.Name, mv.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: traced run left no trace file: %v", name, err)
		}
	}
}

// One flipped byte in a pack shard must surface as failed ops: the
// mapped import does not verify, so only the oracle can notice.
func TestCorruptPackFailsTheOracle(t *testing.T) {
	ctx := context.Background()
	fs, err := generate(ctx, quickCorpus.c25, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := &posPacked{}
	if err := w.setup(ctx, t.TempDir(), fs); err != nil {
		t.Fatal(err)
	}
	members, err := memFiles(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.oracle(ctx, members); err != nil {
		t.Fatal(err)
	}
	tm, err := closedLoop{w}.measure(ctx, 0, nil)
	if err != nil || tm.failed != 0 {
		t.Fatalf("intact packs: failed=%d err=%v first=%v", tm.failed, err, tm.firstErr)
	}

	shards, _ := filepath.Glob(filepath.Join(w.units, "*.pack"))
	if len(shards) == 0 {
		t.Fatal("no pack shards written")
	}
	data, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(shards[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	tm, err = closedLoop{w}.measure(ctx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tm.failed != tm.attempted || tm.failed == 0 {
		t.Errorf("corrupt pack: %d of %d ops failed, want all", tm.failed, tm.attempted)
	}
	t.Logf("first failure: %v", tm.firstErr)
}
