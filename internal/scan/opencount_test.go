package scan_test

import (
	"context"
	"io"
	"sync"
	"testing"

	"repro/internal/scan"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

// countingSources wraps each source's Open so the test can prove the
// engine's core economy claim: a fused run with all four kernels costs
// exactly one open (and one streaming read) per file.
func countingSources(srcs []scan.Source) ([]scan.Source, map[string]*int) {
	var mu sync.Mutex
	counts := make(map[string]*int, len(srcs))
	out := make([]scan.Source, len(srcs))
	for i, src := range srcs {
		src := src
		c := new(int)
		counts[src.Name] = c
		wrapped := src
		wrapped.Content = scan.OpenFunc(func() (io.Reader, error) {
			mu.Lock()
			*c++
			mu.Unlock()
			return src.Content.Open()
		})
		out[i] = wrapped
	}
	return out, counts
}

func fourKernels(t *testing.T) []scan.Kernel {
	t.Helper()
	ms, err := textproc.NewMultiSearcher([]string{"the", "and"})
	if err != nil {
		t.Fatal(err)
	}
	return []scan.Kernel{
		scan.NewChecksum(),
		textproc.NewStatsKernel(),
		textproc.NewMatchKernel(ms),
		textproc.NewAnalyzerKernel(textproc.NewTagger()),
	}
}

func TestFusedRunOpensEachFileExactlyOnce(t *testing.T) {
	fs := diffCorpus(t, 24)
	for _, workers := range []int{1, 2, 8} {
		srcs, counts := countingSources(vfs.Sources(fs.List()))
		if err := scan.Run(context.Background(), srcs, scan.Options{Workers: workers}, fourKernels(t)...); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for name, c := range counts {
			if *c != 1 {
				t.Errorf("workers=%d: %s opened %d times, want exactly 1", workers, name, *c)
			}
		}
	}
}

func TestFusedRunOverPackedCorpusOpensEachMemberOnce(t *testing.T) {
	fs := diffCorpus(t, 24)
	dir := t.TempDir()
	// Two shards so the sequential order spans multiple containers.
	paths, err := fs.ExportPackCtx(context.Background(), dir, vfs.PackOptions{ShardSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("want >= 2 shards for this test, got %d", len(paths))
	}
	packed, closer, err := vfs.ImportPackCtx(context.Background(), paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	for _, workers := range []int{1, 2, 8} {
		// Each member section is opened exactly once per fused run; the
		// shard *handles* were opened once for the whole FS at import (the
		// section readers share them), which is what keeps a packed scan at
		// O(shards) descriptors however many members there are.
		srcs, counts := countingSources(scan.SequentialOrder(vfs.Sources(packed.List())))
		if err := scan.Run(context.Background(), srcs, scan.Options{Workers: workers}, fourKernels(t)...); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for name, c := range counts {
			if *c != 1 {
				t.Errorf("workers=%d: packed member %s opened %d times, want exactly 1", workers, name, *c)
			}
		}
		// The sequential order really is shard-major, offset-ascending.
		var prevShard string
		var prevOff int64
		for _, s := range srcs {
			if s.Shard == prevShard && s.Offset < prevOff {
				t.Fatalf("workers=%d: offsets not ascending within shard %s", workers, s.Shard)
			}
			if s.Shard != prevShard {
				prevShard = s.Shard
			}
			prevOff = s.Offset
		}
	}
}
