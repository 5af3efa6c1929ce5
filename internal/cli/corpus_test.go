package cli

import (
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/packstore"
	"repro/internal/vfs"
)

// packedCorpus writes a small corpus as plain files under dir/plain and
// as pack shards under dir/packed, and returns the two paths.
func packedCorpus(t *testing.T) (plain, packed string) {
	t.Helper()
	fs, err := corpus.GenerateWithContentEagerCtx(context.Background(), corpus.Text400K(0.0001), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain, packed = filepath.Join(dir, "plain"), filepath.Join(dir, "packed")
	if err := fs.ExportCtx(context.Background(), plain); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ExportPackCtx(context.Background(), packed, vfs.PackOptions{ShardSize: 16 << 10}); err != nil {
		t.Fatal(err)
	}
	return plain, packed
}

// openWith parses args the way a command would and opens the corpus for
// use.
func openWith(t *testing.T, ctx context.Context, use Use, args ...string) (*vfs.FS, io.Closer, bool, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := CorpusFlags(fs, 0.0001)
	c.FaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	got, closer, inj, err := c.Open(ctx, use)
	return got, closer, inj != nil, err
}

// TestCorpusOpen is the table for the one opener: which import each flag
// combination and use select, which combinations are refused, and when a
// fault spec wraps the result.
func TestCorpusOpen(t *testing.T) {
	plain, packed := packedCorpus(t)
	ref, err := vfs.ImportDir(plain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := vfs.BuildManifestCtx(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		args    []string
		use     Use
		raw     bool   // files carry zero-copy views
		bytes   bool   // files carry a content source
		shards  bool   // files carry pack locality
		lazy    bool   // generated without the context: a done one does not refuse it
		synth   string // spec name the files are generated under
		armed   bool
		usage   bool
		invalid bool
	}{
		{name: "packs", args: []string{"-packs", packed}, raw: true, bytes: true, shards: true},
		{name: "packs-scan-once", args: []string{"-packs", packed}, use: ScanOnce, raw: true, bytes: true, shards: true},
		{name: "packs-sizes-only", args: []string{"-packs", packed}, use: SizesOnly, raw: true, bytes: true, shards: true},
		{name: "packs-beat-dir", args: []string{"-packs", packed, "-dir", plain}, raw: true, bytes: true, shards: true},
		{name: "dir", args: []string{"-dir", plain}, raw: true, bytes: true},
		{name: "dir-scan-once", args: []string{"-dir", plain}, use: ScanOnce, bytes: true},
		{name: "dir-sizes-only", args: []string{"-dir", plain}, use: SizesOnly, bytes: true},
		{name: "dir-beats-spec", args: []string{"-dir", plain, "-spec", "nope"}, raw: true, bytes: true},
		{name: "spec-text", args: []string{"-spec", "text"}, bytes: true, synth: "Text_400K"},
		{name: "spec-text-scan-once", args: []string{"-spec", "text"}, use: ScanOnce, bytes: true, lazy: true, synth: "Text_400K"},
		{name: "spec-text-sizes-only", args: []string{"-spec", "text"}, use: SizesOnly, lazy: true, synth: "Text_400K"},
		{name: "spec-default", bytes: true, synth: "Text_400K"},
		{name: "spec-html", args: []string{"-spec", "html", "-scale", "0.000001"}, bytes: true, synth: "HTML_18mil"},
		{name: "spec-unknown", args: []string{"-spec", "pdf"}, usage: true},
		{name: "scale-nan", args: []string{"-spec", "text", "-scale", "NaN"}, usage: true},
		{name: "scale-zero", args: []string{"-spec", "text", "-scale", "0"}, usage: true},
		{name: "scale-past-max-files", args: []string{"-spec", "text", "-scale", "1e9"}, use: SizesOnly, usage: true},
		{name: "fault-armed", args: []string{"-packs", packed, "-fault", "seed=7,readerr=0.5"}, bytes: true, shards: true, armed: true},
		{name: "fault-disabled", args: []string{"-packs", packed, "-fault", "seed=7,latency=2ms"}, raw: true, bytes: true, shards: true},
		{name: "fault-bad-spec", args: []string{"-packs", packed, "-fault", "readerr=2"}, invalid: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, closer, armed, err := openWith(t, context.Background(), tc.use, tc.args...)
			if tc.usage || tc.invalid {
				var ue usageError
				if err == nil || errors.As(err, &ue) != tc.usage || errors.Is(err, errs.ErrInvalid) != tc.invalid {
					t.Fatalf("err = %v, want usage=%v invalid=%v", err, tc.usage, tc.invalid)
				}
				if fs != nil || closer != nil {
					t.Error("a refused open returned a corpus")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer closer.Close()
			if armed != tc.armed {
				t.Errorf("armed %v, want %v", armed, tc.armed)
			}
			f := fs.List()[0]
			_, rawErr := f.Bytes() // errors exactly when the file carries no zero-copy view
			if shard := vfs.Sources(fs.List()[:1])[0].Shard; (rawErr == nil) != tc.raw || f.HasContent() != tc.bytes || (shard != "") != tc.shards {
				t.Errorf("first file: raw %v (want %v), content %v (want %v), shard %q (want one: %v)",
					rawErr == nil, tc.raw, f.HasContent(), tc.bytes, shard, tc.shards)
			}
			if tc.synth != "" && !strings.HasPrefix(f.Name, tc.synth+"/") {
				t.Errorf("first file %q, want one generated under %s", f.Name, tc.synth)
			}
			if tc.synth == "" && !tc.armed {
				if err := want.VerifyCtx(context.Background(), fs); err != nil {
					t.Errorf("opened corpus differs from the source: %v", err)
				}
			}
			if strings.HasPrefix(tc.name, "packs") {
				flippedMemberFails(t, tc.use, tc.args, packed)
			}
			fs, closer, _, err = openWith(t, done, tc.use, tc.args...)
			if tc.lazy {
				if err != nil {
					t.Fatalf("a lazy generator refused a done context: %v", err)
				}
				closer.Close()
			} else if !errors.Is(err, errs.ErrCancelled) || fs != nil || closer != nil {
				t.Errorf("open under a done context: fs %v, closer %v, err %v; want ErrCancelled alone", fs, closer, err)
			}
		})
	}
}

// flippedMemberFails opens args with the pack directory packed replaced
// by a copy in which one payload byte of the first member is flipped, and
// requires that member, and no other, to fail both its raw view and its
// stream with ErrCorrupt at stage verify naming it.
func flippedMemberFails(t *testing.T, use Use, args []string, packed string) {
	t.Helper()
	flipped := t.TempDir()
	shards, err := filepath.Glob(filepath.Join(packed, "*.pack"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards under %s (%v)", packed, err)
	}
	for _, shard := range shards {
		data, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(flipped, filepath.Base(shard)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	args = slices.Clone(args)
	args[slices.Index(args, packed)] = flipped
	open := func() (*vfs.FS, io.Closer) {
		fs, closer, _, err := openWith(t, context.Background(), use, args...)
		if err != nil {
			t.Fatal(err)
		}
		return fs, closer
	}
	// The flip goes in before the import that reads it: a build without
	// mmap copies each shard at import.
	fs, closer := open()
	victim := vfs.Sources(fs.List()[:1])[0]
	closer.Close()
	f, err := os.OpenFile(victim.Shard, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := victim.Offset + victim.Size/2
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fs, closer = open()
	defer closer.Close()
	for _, f := range fs.List() {
		_, rawErr := f.Bytes()
		_, readErr := f.ReadAll()
		for via, err := range map[string]error{"raw view": rawErr, "stream": readErr} {
			var se *errs.StageError
			switch {
			case f.Name != victim.Name && err != nil:
				t.Errorf("%s of undamaged member %q: %v", via, f.Name, err)
			case f.Name == victim.Name && !(errors.Is(err, errs.ErrCorrupt) && errors.As(err, &se) && se.Stage == "verify" && se.File == f.Name):
				t.Errorf("%s of flipped member %q: err = %v, want ErrCorrupt at stage verify naming it", via, f.Name, err)
			}
		}
	}
}

// TestCorpusOpenFailureLeavesNothingMapped: an import that has already
// mapped a shard when a later one fails hands back no closer, so it must
// have unmapped the first itself.
func TestCorpusOpenFailureLeavesNothingMapped(t *testing.T) {
	_, packed := packedCorpus(t)
	shards, err := filepath.Glob(filepath.Join(packed, "*.pack"))
	if err != nil || len(shards) < 2 {
		t.Fatalf("want at least two shards, have %v (%v)", shards, err)
	}
	mappings := func() int {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("no /proc/self/maps to count mappings in: %v", err)
		}
		return strings.Count(string(maps), packed)
	}
	_, closer, _, err := openWith(t, context.Background(), Resident, "-packs", packed)
	if err != nil {
		t.Fatal(err)
	}
	held := mappings()
	if held == 0 && packstore.MmapSupported {
		t.Fatal("an open packed corpus holds no mappings: the test sees nothing")
	}
	closer.Close()
	if mappings() != 0 {
		t.Fatal("closer left a shard mapped")
	}
	last := shards[len(shards)-1]
	if err := os.Truncate(last, 10); err != nil {
		t.Fatal(err)
	}
	fs, closer, _, err := openWith(t, context.Background(), Resident, "-packs", packed)
	if err == nil || fs != nil || closer != nil {
		t.Fatalf("open over a truncated last shard: fs %v, closer %v, err %v", fs, closer, err)
	}
	if got := mappings(); got != 0 {
		t.Errorf("failed open left %d mapping(s) (a good open holds %d)", got, held)
	}
}
