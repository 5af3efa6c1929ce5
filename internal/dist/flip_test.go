package dist

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/fault"
	"repro/internal/scan"
	"repro/internal/vfs"
)

// smallPacks exports a small generated corpus as 64 KiB pack shards,
// one plan task each, and returns the directory with the mapped import's file list beside it;
// the import is closed when the test ends.
func smallPacks(t *testing.T) (string, *vfs.FS) {
	t.Helper()
	src, err := corpus.GenerateWithContent(corpus.Text400K(0.0005), 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := src.ExportPackCtx(context.Background(), dir, vfs.PackOptions{ShardSize: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	return dir, importPacks(t, dir)
}

func importPacks(t *testing.T, dir string) *vfs.FS {
	t.Helper()
	fs, closer, err := vfs.ImportPackMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closer.Close() })
	return fs
}

// corruptMember reports whether err is ErrCorrupt from the verify stage
// naming one of the files: a StageError that says so in process, or its
// message after the wire, which keeps the sentinel and the text.
func corruptMember(err error, files []vfs.File) bool {
	return errors.Is(err, errs.ErrCorrupt) && namesMember(err.Error(), files)
}

// namesMember reports whether msg blames one of the files at the verify
// stage.
func namesMember(msg string, files []vfs.File) bool {
	for _, f := range files {
		if strings.Contains(msg, "verify: "+f.Name+": ") {
			return true
		}
	}
	return false
}

// TestBitFlipFailsEveryReadPath: a bit flip injected into pack members
// fails the read that meets it with ErrCorrupt naming the member — on the
// single-node scan, on two in-process workers and on two HTTP workers —
// and under AllowPartial the run skips exactly the flipped tasks. The
// read is checked against the member's stored sum above the injector, so
// the flip cannot pass as data.
func TestBitFlipFailsEveryReadPath(t *testing.T) {
	ctx := context.Background()
	_, packed := smallPacks(t)
	inj, err := fault.New(fault.Config{Seed: 3, BitFlip: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := inj.WrapFS(packed)
	if err != nil {
		t.Fatal(err)
	}
	files := fs.List()
	spec := Spec{Patterns: []string{"the"}}
	p := scan.NewPlan(files, scan.PlanOptions{})
	if len(p.Tasks) < 4 {
		t.Fatalf("want several tasks, plan has %d", len(p.Tasks))
	}

	t.Run("single-node", func(t *testing.T) {
		_, err := core.MeasureCtx(ctx, fs, spec.MeasureOptions())
		if !corruptMember(err, files) {
			t.Fatalf("err = %v, want ErrCorrupt naming a member", err)
		}
	})
	t.Run("in-process", func(t *testing.T) {
		_, _, err := Measure(ctx, p, spec, localWorkers(t, p, spec, 2), Options{})
		if !corruptMember(err, files) {
			t.Fatalf("err = %v, want ErrCorrupt naming a member", err)
		}
	})
	t.Run("http", func(t *testing.T) {
		var ws []Worker
		for _, name := range []string{"h0", "h1"} {
			ts := httptest.NewServer(NewWorkerServer(name, p).Handler())
			defer ts.Close()
			ws = append(ws, NewHTTPWorker(name, ts.URL))
		}
		_, _, err := Measure(ctx, p, spec, ws, Options{})
		if !corruptMember(err, files) {
			t.Fatalf("err = %v, want ErrCorrupt naming a member", err)
		}
	})
	t.Run("allow-partial", func(t *testing.T) {
		// Every open flips a byte, so every task that reads a byte is
		// flipped, and only those.
		var flipped []int
		for i, task := range p.Tasks {
			if task.Bytes > 0 {
				flipped = append(flipped, i)
			}
		}
		_, rep, err := Measure(ctx, p, spec, localWorkers(t, p, spec, 2), Options{AllowPartial: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Skipped) != len(flipped) {
			t.Fatalf("skipped %d tasks, want the %d flipped ones", len(rep.Skipped), len(flipped))
		}
		for i, sk := range rep.Skipped {
			task := p.Tasks[sk.Task]
			if sk.Task != flipped[i] || !strings.Contains(sk.Reason, errs.ErrCorrupt.Error()) || !namesMember(sk.Reason, files[task.Lo:task.Hi]) {
				t.Errorf("skipped task %d (%s), want task %d failing on one of its own members", sk.Task, sk.Reason, flipped[i])
			}
		}
	})
}

// TestFlippedMemberOnDiskSkipsItsTask: one payload byte flipped on disk
// fails the strict run naming its member, and under AllowPartial skips
// exactly the task that holds it, the rest folding as a clean run over
// the surviving tasks does.
func TestFlippedMemberOnDiskSkipsItsTask(t *testing.T) {
	ctx := context.Background()
	dir, clean := smallPacks(t)
	spec := Spec{Patterns: []string{"the"}}
	plan := func(fs *vfs.FS) *scan.Plan {
		return scan.NewPlan(fs.List(), scan.PlanOptions{})
	}
	cp := plan(clean)
	bad := len(cp.Tasks) / 2
	victim := cp.Sources[cp.Tasks[bad].Lo]
	want := partialWant(t, cp, spec, map[int]bool{bad: true})

	shard, off := victim.Locality()
	f, err := os.OpenFile(shard, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs := importPacks(t, dir)
	p := plan(fs)
	_, _, err = Measure(ctx, p, spec, localWorkers(t, p, spec, 2), Options{})
	if !corruptMember(err, []vfs.File{{Name: victim.Name}}) {
		t.Fatalf("strict run: err = %v, want ErrCorrupt naming %q", err, victim.Name)
	}
	m, rep, err := Measure(ctx, p, spec, localWorkers(t, p, spec, 2), Options{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0].Task != bad {
		t.Fatalf("skipped %+v, want task %d alone", rep.Skipped, bad)
	}
	sameMeasurement(t, m, want)
}
