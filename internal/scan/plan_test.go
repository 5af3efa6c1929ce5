package scan

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/vfs"
)

// shardedSource builds a metadata-only Source with shard locality, as a
// pack import lists its members.
func shardedSource(name, shard string, off, size int64) Source {
	return vfs.NewMemberFile(name, size, shard, off)
}

func taskRanges(p *Plan) [][2]int {
	out := make([][2]int, len(p.Tasks))
	for i, t := range p.Tasks {
		out[i] = [2]int{t.Lo, t.Hi}
	}
	return out
}

// TestNewPlanShardRuns checks every contiguous shard run forms exactly
// one task, regardless of TaskBytes, and the tasks tile the source list.
func TestNewPlanShardRuns(t *testing.T) {
	srcs := []Source{
		shardedSource("b0", "packs/b.pack", 0, 100),
		shardedSource("a1", "packs/a.pack", 512, 300),
		shardedSource("a0", "packs/a.pack", 0, 200),
		shardedSource("b1", "packs/b.pack", 256, 400),
	}
	p := NewPlan(srcs, PlanOptions{TaskBytes: 1}) // tiny cap must not split shards
	if len(p.Tasks) != 2 {
		t.Fatalf("%d tasks, want 2 (one per shard): %+v", len(p.Tasks), p.Tasks)
	}
	// SequentialOrder groups by shard path, offset ascending.
	wantOrder := []string{"a0", "a1", "b0", "b1"}
	for i, w := range wantOrder {
		if p.Sources[i].Name != w {
			t.Fatalf("source %d is %q, want %q", i, p.Sources[i].Name, w)
		}
	}
	if got, want := taskRanges(p), [][2]int{{0, 2}, {2, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("task ranges %v, want %v", got, want)
	}
	if p.Tasks[0].Shard != "packs/a.pack" || p.Tasks[0].Bytes != 500 {
		t.Errorf("task 0 = %+v, want shard a.pack / 500 bytes", p.Tasks[0])
	}
	if p.Tasks[1].Shard != "packs/b.pack" || p.Tasks[1].Bytes != 500 {
		t.Errorf("task 1 = %+v, want shard b.pack / 500 bytes", p.Tasks[1])
	}
}

// TestNewPlanChunksShardless checks shard-less runs are chunked at file
// granularity under TaskBytes, a lone oversized file still forms its own
// task, and tasks tile the sources exactly.
func TestNewPlanChunksShardless(t *testing.T) {
	srcs := []Source{
		{Name: "f0", Size: 60},
		{Name: "f1", Size: 60},  // 120 > 100 → f1 starts task 2
		{Name: "f2", Size: 250}, // oversized alone
		{Name: "f3", Size: 10},
		{Name: "f4", Size: 10},
		{Name: "f5", Size: 10},
	}
	p := NewPlan(srcs, PlanOptions{TaskBytes: 100})
	want := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 6}}
	if got := taskRanges(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("task ranges %v, want %v", got, want)
	}
	if p.Tasks[2].Bytes != 250 {
		t.Errorf("oversized task bytes = %d, want 250", p.Tasks[2].Bytes)
	}
	// Tiling invariant: Lo of each task is Hi of the previous.
	lo := 0
	for i, tk := range p.Tasks {
		if tk.Lo != lo {
			t.Fatalf("task %d Lo=%d, want %d (tasks must tile)", i, tk.Lo, lo)
		}
		lo = tk.Hi
	}
	if lo != len(p.Sources) {
		t.Fatalf("tasks end at %d, want %d", lo, len(p.Sources))
	}
}

// TestNewPlanDefaultTaskBytes checks the zero value picks the default
// cap: a small shard-less corpus collapses to a single task.
func TestNewPlanDefaultTaskBytes(t *testing.T) {
	srcs := make([]Source, 50)
	for i := range srcs {
		srcs[i] = Source{Name: fmt.Sprintf("f%02d", i), Size: 1000}
	}
	p := NewPlan(srcs, PlanOptions{})
	if len(p.Tasks) != 1 {
		t.Fatalf("%d tasks, want 1 under DefaultTaskBytes", len(p.Tasks))
	}
	if p.Tasks[0].Bytes != 50_000 {
		t.Errorf("task bytes = %d, want 50000", p.Tasks[0].Bytes)
	}
}

// TestPlanFingerprint pins the agreement contract: identical source
// lists agree; renames, size changes, relocations and different chunking
// all disagree.
func TestPlanFingerprint(t *testing.T) {
	mk := func() []Source {
		return []Source{
			shardedSource("a0", "packs/a.pack", 0, 200),
			shardedSource("a1", "packs/a.pack", 512, 300),
			{Name: "loose", Size: 40},
		}
	}
	base := NewPlan(mk(), PlanOptions{}).Fingerprint()
	if again := NewPlan(mk(), PlanOptions{}).Fingerprint(); again != base {
		t.Fatalf("same inputs fingerprint %016x then %016x", base, again)
	}

	mutations := map[string]func([]Source) []Source{
		"rename":    func(s []Source) []Source { s[2].Name = "loose2"; return s },
		"resize":    func(s []Source) []Source { s[1].Size++; return s },
		"relocate":  func(s []Source) []Source { s[1] = shardedSource("a1", "packs/a.pack", 513, 300); return s },
		"reshard":   func(s []Source) []Source { s[0] = shardedSource("a0", "packs/c.pack", 0, 200); return s },
		"drop-file": func(s []Source) []Source { return s[:2] },
	}
	for name, mut := range mutations {
		if got := NewPlan(mut(mk()), PlanOptions{}).Fingerprint(); got == base {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}

	// Same sources, different chunking → different task boundaries →
	// different fingerprint.
	loose := []Source{{Name: "x", Size: 60}, {Name: "y", Size: 60}}
	one := NewPlan(loose, PlanOptions{TaskBytes: 1000}).Fingerprint()
	two := NewPlan([]Source{{Name: "x", Size: 60}, {Name: "y", Size: 60}}, PlanOptions{TaskBytes: 64}).Fingerprint()
	if one == two {
		t.Error("different chunking, same fingerprint")
	}
}

// TestExecuteEqualsRun pins the split's core identity: executing a
// plan's full task list produces the same accumulation as Run over its
// sources, and executing tasks one at a time with a merge between equals
// both.
func TestExecuteEqualsRun(t *testing.T) {
	srcs, _ := testCorpus(30)
	p := NewPlan(srcs, PlanOptions{TaskBytes: 1500})
	if len(p.Tasks) < 3 {
		t.Fatalf("want ≥3 tasks, got %d", len(p.Tasks))
	}

	direct := NewChecksum()
	if err := Run(context.Background(), p.Sources, Options{}, direct); err != nil {
		t.Fatal(err)
	}

	whole := NewChecksum()
	if err := Execute(context.Background(), p, p.Tasks, Options{}, whole); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole.Sums(), direct.Sums()) {
		t.Error("Execute over all tasks differs from Run over sources")
	}

	// Task at a time, folded through the portable-state path.
	frontier := NewChecksum()
	for _, tk := range p.Tasks {
		part := NewChecksum()
		if err := Execute(context.Background(), p, []Task{tk}, Options{}, part); err != nil {
			t.Fatal(err)
		}
		st, err := SnapshotKernel(part)
		if err != nil {
			t.Fatal(err)
		}
		carried := frontier.Fork()
		if err := RestoreKernel(carried, st); err != nil {
			t.Fatal(err)
		}
		frontier.Merge(carried)
	}
	if !reflect.DeepEqual(frontier.Sums(), direct.Sums()) {
		t.Error("per-task Execute + state fold differs from Run over sources")
	}
	if FingerprintSums(frontier.Sums()) != FingerprintSums(direct.Sums()) {
		t.Error("fingerprints differ")
	}
}
