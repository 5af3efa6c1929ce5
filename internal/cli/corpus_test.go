package cli

import (
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
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

// openWith parses args the way a command would and opens the corpus.
func openWith(t *testing.T, synthetic Synthetic, args ...string) (*vfs.FS, io.Closer, bool, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := CorpusFlags(fs, 0.0001)
	c.FaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	got, closer, inj, err := c.Open(context.Background(), synthetic)
	return got, closer, inj != nil, err
}

// TestCorpusOpen is the table for the one opener: which import each flag
// combination selects, which combinations are refused, and when a fault
// spec wraps the result.
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
	for _, tc := range []struct {
		name    string
		args    []string
		raw     bool // files carry zero-copy views
		shards  bool // files carry pack locality
		armed   bool
		synth   string // spec name the synthetic builder must see
		usage   bool
		invalid bool
	}{
		{name: "packs", args: []string{"-packs", packed}, raw: true, shards: true},
		{name: "packs-beat-dir", args: []string{"-packs", packed, "-dir", plain}, raw: true, shards: true},
		{name: "packs-verified", args: []string{"-packs", packed, "-verify-reads"}, shards: true},
		{name: "dir", args: []string{"-dir", plain}, raw: true},
		{name: "dir-beats-spec", args: []string{"-dir", plain, "-spec", "nope"}, raw: true},
		{name: "spec-text", args: []string{"-spec", "text"}, synth: "Text_400K"},
		{name: "spec-default", synth: "Text_400K"},
		{name: "spec-html", args: []string{"-spec", "html", "-scale", "0.000001"}, synth: "HTML_18mil"},
		{name: "spec-unknown", args: []string{"-spec", "pdf"}, usage: true},
		{name: "scale-nan", args: []string{"-spec", "text", "-scale", "NaN"}, usage: true},
		{name: "scale-zero", args: []string{"-spec", "text", "-scale", "0"}, usage: true},
		{name: "verify-reads-without-packs", args: []string{"-dir", plain, "-verify-reads"}, usage: true},
		{name: "fault-armed", args: []string{"-packs", packed, "-fault", "seed=7,readerr=0.5"}, shards: true, armed: true},
		{name: "fault-disabled", args: []string{"-packs", packed, "-fault", "seed=7,latency=2ms"}, raw: true, shards: true},
		{name: "fault-bad-spec", args: []string{"-packs", packed, "-fault", "readerr=2"}, invalid: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sawSpec := ""
			fs, closer, armed, err := openWith(t, func(ctx context.Context, spec corpus.Spec, seed int64) (*vfs.FS, error) {
				sawSpec = spec.Name
				return Eager(ctx, spec, seed)
			}, tc.args...)
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
			if sawSpec != tc.synth || armed != tc.armed {
				t.Errorf("synthetic saw %q (want %q), armed %v (want %v)", sawSpec, tc.synth, armed, tc.armed)
			}
			f := fs.List()[0]
			_, rawErr := f.Bytes() // errors exactly when the file carries no zero-copy view
			if shard, _ := f.Locality(); (rawErr == nil) != tc.raw || (shard != "") != tc.shards {
				t.Errorf("first file: raw %v (want %v), shard %q (want one: %v)", rawErr == nil, tc.raw, shard, tc.shards)
			}
			if tc.synth == "" && !tc.armed {
				if err := want.VerifyCtx(context.Background(), fs); err != nil {
					t.Errorf("opened corpus differs from the source: %v", err)
				}
			}
		})
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
	_, closer, _, err := openWith(t, Eager, "-packs", packed)
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
	fs, closer, _, err := openWith(t, Eager, "-packs", packed)
	if err == nil || fs != nil || closer != nil {
		t.Fatalf("open over a truncated last shard: fs %v, closer %v, err %v", fs, closer, err)
	}
	if got := mappings(); got != 0 {
		t.Errorf("failed open left %d mapping(s) (a good open holds %d)", got, held)
	}
}
