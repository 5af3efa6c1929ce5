package vfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/packstore"
)

// The export pipeline's obligations beyond the bytes it writes: every
// descriptor an ImportDir member opened is closed (nothing else will — the
// opener hands out raw descriptors), every loader is joined, and the error
// is the first in List order whatever loaded first.

// diskMembers writes n small files under a fresh directory and returns it.
func diskMembers(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte('a' + i%26)}, 200+i%7*90)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("m%04d.txt", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// unitsOf reshapes fs the way core.ReshapeCtx does, minus the packing
// policy: every run of per files in List order becomes one Concat unit.
func unitsOf(t *testing.T, fs *FS, per int) *FS {
	t.Helper()
	out := NewFS()
	files := fs.List()
	for lo := 0; lo < len(files); lo += per {
		unit := Concat(fmt.Sprintf("unit-%06d", lo/per), files[lo:min(lo+per, len(files))])
		if err := out.Add(unit); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// settledGoroutines waits for the goroutine count to come back down to
// want: ExportPackCtx joins its loaders before it returns, so this is a
// wait for the runtime's bookkeeping, not for the loaders.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func TestExportPackLeavesNoDescriptorsOrLoaders(t *testing.T) {
	const members, perUnit = 96, 8
	cases := []struct {
		name string
		// build returns the reshaped corpus to export and the context to
		// export it under.
		build func(t *testing.T) (*FS, context.Context)
		check func(t *testing.T, err error)
	}{
		{"complete export", func(t *testing.T) (*FS, context.Context) {
			in, err := ImportDir(diskMembers(t, members))
			if err != nil {
				t.Fatal(err)
			}
			return unitsOf(t, in, perUnit), context.Background()
		}, func(t *testing.T, err error) {
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"cancelled mid-export", func(t *testing.T) (*FS, context.Context) {
			in, err := ImportDir(diskMembers(t, members))
			if err != nil {
				t.Fatal(err)
			}
			// A member in the middle of the corpus cancels the export the
			// moment a loader opens it, with disk members open around it.
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			trip := NewContentFile("m0050-trip", 4, func() (io.Reader, error) {
				cancel()
				return strings.NewReader("trip"), nil
			})
			if err := in.Add(trip); err != nil {
				t.Fatal(err)
			}
			return unitsOf(t, in, perUnit), ctx
		}, func(t *testing.T, err error) {
			if !errors.Is(err, errs.ErrCancelled) {
				t.Fatalf("err = %v, want ErrCancelled", err)
			}
		}},
		{"member deleted after import", func(t *testing.T) (*FS, context.Context) {
			dir := diskMembers(t, members)
			in, err := ImportDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(dir, "m0043.txt")); err != nil {
				t.Fatal(err)
			}
			return unitsOf(t, in, perUnit), context.Background()
		}, func(t *testing.T, err error) {
			// scan's TestOpenFailureIsReportedAsItself table, on the export.
			switch {
			case !errors.Is(err, os.ErrNotExist):
				t.Fatalf("err = %v, want it to wrap os.ErrNotExist", err)
			case strings.Count(err.Error(), `vfs: open "m0043.txt"`) != 1:
				t.Fatalf("err = %v, want it to name m0043.txt exactly once", err)
			case errors.Is(err, errs.ErrCorrupt) || strings.Contains(err.Error(), "declared"):
				t.Fatalf("err = %v, reported as a size mismatch", err)
			}
		}},
		{"member grew after import", func(t *testing.T) (*FS, context.Context) {
			dir := diskMembers(t, members)
			in, err := ImportDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Mid-unit, so the unit's reader is closed with a member open.
			path := filepath.Join(dir, "m0043.txt")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(data, "more"...), 0o644); err != nil {
				t.Fatal(err)
			}
			return unitsOf(t, in, perUnit), context.Background()
		}, func(t *testing.T, err error) {
			if err == nil || !strings.Contains(err.Error(), `"unit-000005" declared`) {
				t.Fatalf("err = %v, want unit-000005's size mismatch", err)
			}
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				fs, ctx := tc.build(t)
				out := t.TempDir()
				fds, goroutines := openFDs(t), runtime.NumGoroutine()
				_, err := fs.ExportPackCtx(ctx, out, PackOptions{ShardSize: 4 << 10, Workers: workers})
				tc.check(t, err)
				if after := openFDs(t); after != fds {
					t.Errorf("%d descriptors open before the export, %d after", fds, after)
				}
				if after := settledGoroutines(goroutines); after != goroutines {
					t.Errorf("%d goroutines before the export, %d after", goroutines, after)
				}
			})
		}
	}
}

// TestExportPackReportsFirstErrorInListOrder: two units fail to load, and
// the later one in List order is made to fail first — the earlier one's
// opener waits for it. The export reports the earlier.
func TestExportPackReportsFirstErrorInListOrder(t *testing.T) {
	errEarly, errLate := errors.New("early unit offline"), errors.New("late unit offline")
	lateFailed := make(chan struct{})
	var lateOpens atomic.Int32
	fs := NewFS()
	for i := 0; i < 8; i++ {
		f := BytesFile(fmt.Sprintf("u%d", i), bytes.Repeat([]byte{byte(i)}, 100))
		switch i {
		case 1:
			f = NewContentFile(f.Name, f.Size, func() (io.Reader, error) {
				<-lateFailed
				return nil, errEarly
			})
		case 3:
			f = NewContentFile(f.Name, f.Size, func() (io.Reader, error) {
				if lateOpens.Add(1) == 1 {
					close(lateFailed)
				}
				return nil, errLate
			})
		}
		if err := fs.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	// Two loaders: one parks in u1's opener, the other reaches u3.
	_, err := fs.ExportPackCtx(context.Background(), t.TempDir(), PackOptions{Workers: 2})
	if !errors.Is(err, errEarly) || errors.Is(err, errLate) {
		t.Fatalf("err = %v, want u1's error and not u3's", err)
	}
	if !strings.Contains(err.Error(), `export pack at "u1"`) {
		t.Errorf("err = %v, want it to name u1", err)
	}
}

// TestImportDirFileVanishesBetweenWalkAndStat: the walk listed a file the
// parallel stat no longer finds. The import fails naming it and returns no
// half-filled FS.
func TestImportDirFileVanishesBetweenWalkAndStat(t *testing.T) {
	dir := diskMembers(t, 3*importChunkFiles/2) // two stat chunks
	entries, err := walkFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One in each chunk: the first in walk order is the one reported.
	first, second := entries[7].path, entries[importChunkFiles+7].path
	for _, path := range []string{first, second} {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := statFiles(entries)
	if fs != nil {
		t.Errorf("a failed import returned an FS of %d files", fs.Len())
	}
	if !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), first) {
		t.Fatalf("err = %v, want os.ErrNotExist naming %s", err, first)
	}
	// And through the front door, with the file gone before the walk, the
	// import simply does not list it.
	in, err := ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() != len(entries)-2 {
		t.Fatalf("ImportDir after the removals lists %d files, want %d", in.Len(), len(entries)-2)
	}
}

// TestImportPackVerifiedNamesWrongSum: the writer records the member
// checksum its caller folded, so a caller that folds it wrong produces a
// pack whose index and bytes disagree — which the verifying import reports
// exactly as it reports damage on disk, naming the member, while the
// members around it read clean.
func TestImportPackVerifiedNamesWrongSum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wrong.pack")
	w, err := packstore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "bad", "c"} {
		data := []byte("payload of " + name)
		sum := uint64(crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)))
		if name == "bad" {
			sum ^= 1
		}
		if err := w.AppendSummed(name, data, sum); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fs, closer, err := ImportPackVerifiedCtx(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	for _, f := range fs.List() {
		_, err := f.ReadAll()
		if f.Name != "bad" {
			if err != nil {
				t.Errorf("member %q beside the wrong sum: %v", f.Name, err)
			}
			continue
		}
		var se *errs.StageError
		if !errors.Is(err, errs.ErrCorrupt) || !errors.As(err, &se) || se.File != "bad" {
			t.Errorf("verified read of the wrongly summed member: %v, want ErrCorrupt naming it", err)
		}
	}
}
