package scan_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/scan"
	"repro/internal/scan/kerneltest"
	"repro/internal/textproc"
	"repro/internal/textproc/bmhtest"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// diffPatterns are the grep patterns for the differential corpus; they
// overlap each other ("the"/"they", "an"/"and") and self-overlap ("anan"
// never, "aa" in "aaaa") to stress the automaton's counting semantics.
var diffPatterns = []string{"the", "they", "an", "and", "aa", "error"}

// diffCorpus builds deterministic text files exercising every tokenizer
// edge the streaming kernels must reproduce: sentence punctuation,
// multi-byte runes (word and punctuation), apostrophes, out-of-vocabulary
// words in every case mix the lexicon lookup folds, pattern matches placed
// to straddle small block boundaries, and empty files.
func diffCorpus(t *testing.T, n int) *vfs.FS {
	t.Helper()
	pieces := []string{
		"the quick brown fox. ",
		"they said it's fine! ",
		"an and and anan aaaa?\n",
		"café naïve résumé — dash. ",
		"errors error erroneous\n",
		"12 o'clock... ",
		"é ",
		"Zzyzzx glorptal Frobnak unknownia! Déjà 北京 flurmish? ",
	}
	fs := vfs.NewFS()
	for i := 0; i < n; i++ {
		var b bytes.Buffer
		if i%9 != 4 { // every ninth file is empty
			for j := 0; j < 3+i%5; j++ {
				b.WriteString(pieces[(i+j)%len(pieces)])
			}
		}
		if err := fs.Add(vfs.BytesFile(fmt.Sprintf("file-%04d", i), append([]byte(nil), b.Bytes()...))); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// TestFusedScanMatchesReferenceImplementations is the acceptance
// differential: one fused run of the measurement's kernel assembly must
// be bit-identical to the per-kernel reference implementations
// (vfs.Checksum, textproc.Analyze, per-pattern Searcher counts,
// workload.ComplexityOf) at workers 1, 2 and 8 and every conformance
// block size — down to one byte, where every token, match and rune
// straddles a block boundary. A statistics-only analyzer kernel rides
// along: without a lexicon it must report the same statistics and no
// unknown words.
func TestFusedScanMatchesReferenceImplementations(t *testing.T) {
	fs := diffCorpus(t, 30)
	// The pieces above make files of a hundred bytes or so; the analyzer's
	// window loop wants longer stretches, in every shape of text the
	// kernel microbenchmarks run over.
	plain := corpus.NewGenerator(corpus.NewsStyle(), 19).Text(24_000)
	for name, data := range map[string][]byte{
		"prose-plain": plain[:9_000], "prose-wrapped": kerneltest.Prose(plain, 1000), "prose-accented": kerneltest.Prose(plain[9_000:], 4),
	} {
		if err := fs.Add(vfs.BytesFile(name, data)); err != nil {
			t.Fatal(err)
		}
	}
	files := fs.List()
	tagger := textproc.NewTagger()

	// Reference results, computed the slow way: one full pass per kernel.
	type ref struct {
		sum        uint64
		stats      textproc.TextStats
		lines      int64
		counts     []int64
		complexity float64
	}
	refs := make([]ref, len(files))
	searchers := make([]*bmhtest.Searcher, len(diffPatterns))
	for i, p := range diffPatterns {
		s, err := bmhtest.New(p)
		if err != nil {
			t.Fatal(err)
		}
		searchers[i] = s
	}
	for i, f := range files {
		data, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		// The oracle is the standard library's FNV-64a, not the engine's fold.
		h := fnv.New64a()
		h.Write(data)
		sum := h.Sum64()
		counts := make([]int64, len(diffPatterns))
		for j, s := range searchers {
			counts[j] = s.CountBytes(data)
		}
		refs[i] = ref{
			sum:        sum,
			stats:      textproc.Analyze(data),
			lines:      int64(bytes.Count(data, []byte("\n"))),
			counts:     counts,
			complexity: workload.ComplexityOf(data, tagger),
		}
	}

	for _, workers := range []int{1, 2, 8} {
		for _, block := range kerneltest.BlockSizes {
			mk, err := core.NewMeasureKernels(core.MeasureOptions{Patterns: diffPatterns, Complexity: true, Tagger: tagger})
			if err != nil {
				t.Fatal(err)
			}
			plain := textproc.NewStatsKernel()
			err = scan.Run(context.Background(), vfs.Sources(files),
				scan.Options{Workers: workers, BlockSize: block}, append(mk.List, plain)...)
			if err != nil {
				t.Fatalf("workers=%d block=%d: %v", workers, block, err)
			}
			m := mk.Measurement()
			for i, f := range files {
				tag := fmt.Sprintf("workers=%d block=%d file=%s", workers, block, f.Name)
				if m.Sums[i].Name != f.Name || m.FileStats[i].Name != f.Name ||
					m.PatternFiles[i].Name != f.Name || plain.Files()[i].Name != f.Name {
					t.Fatalf("%s: kernel merge order diverged from input order", tag)
				}
				if m.Sums[i].Sum != refs[i].sum {
					t.Errorf("%s: checksum %x, want %x", tag, m.Sums[i].Sum, refs[i].sum)
				}
				if m.FileStats[i].Stats != refs[i].stats {
					t.Errorf("%s: stats %+v, want %+v", tag, m.FileStats[i].Stats, refs[i].stats)
				}
				if m.FileStats[i].Lines != refs[i].lines {
					t.Errorf("%s: lines %d, want %d", tag, m.FileStats[i].Lines, refs[i].lines)
				}
				if !reflect.DeepEqual(m.PatternFiles[i].Counts, refs[i].counts) {
					t.Errorf("%s: counts %v, want %v", tag, m.PatternFiles[i].Counts, refs[i].counts)
				}
				if got := m.Complexity[f.Name]; got != refs[i].complexity {
					t.Errorf("%s: complexity %v, want %v", tag, got, refs[i].complexity)
				}
				if want := (textproc.FileStats{Name: f.Name, Stats: refs[i].stats, Lines: refs[i].lines}); plain.Files()[i] != want {
					t.Errorf("%s: lexicon-less kernel has %+v, want %+v", tag, plain.Files()[i], want)
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestFoldedMultiSearcherMatchesFoldedSearcher pins the fold semantics of
// the automaton to the reference BMH searcher.
func TestFoldedMultiSearcherMatchesFoldedSearcher(t *testing.T) {
	text := []byte("The THEY theatre ANDante AA aa aA Error ERRORS the")
	ms, err := textproc.NewFoldedMultiSearcher(diffPatterns)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int64, len(diffPatterns))
	ms.Feed(ms.Start(), text, got)
	for i, p := range diffPatterns {
		s, err := bmhtest.NewFolded(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.CountBytes(text); got[i] != want {
			t.Errorf("pattern %q: folded count %d, want %d", p, got[i], want)
		}
	}
}

// chunkCorpus builds n sources of seeded-random sizes — about one in
// eight empty — with one source of bigSize bytes in the middle (0 for
// none). Odd sources carry a raw view, so both delivery paths meet
// inside one chunk.
func chunkCorpus(t *testing.T, seed int64, n, bigSize int) []vfs.File {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	text := bytes.Repeat([]byte("the quick brown fox. they said it's fine! an and anan aaaa?\ncafé — errors error.\n"), 64)
	files := make([]vfs.File, n)
	for i := range files {
		size := rng.Intn(3000)
		if rng.Intn(8) == 0 {
			size = 0
		}
		if i == n/2 && bigSize > 0 {
			size = bigSize
		}
		// A random phase, so files start and end mid-token and mid-rune.
		data := make([]byte, 0, size)
		for off := rng.Intn(len(text)); len(data) < size; off = 0 {
			data = append(data, text[off:min(len(text), off+size-len(data))]...)
		}
		files[i] = vfs.BytesFile(fmt.Sprintf("file-%05d", i), data)
		if i%2 == 1 {
			files[i] = files[i].WithRawBytes(data)
		}
	}
	return files
}

// TestChunkedMergeBitIdenticalAtAnyWorkerCount is the chunk-boundary
// differential. Run groups sources into chunks whose boundaries move
// with the worker count; the production kernel trio must not be able to
// tell: every accumulated field and every Snapshot byte equals the
// Workers: 1 run, down to 3-byte blocks, over corpora that put empty
// files, an oversized source and a lone source on the boundaries.
func TestChunkedMergeBitIdenticalAtAnyWorkerCount(t *testing.T) {
	tagger := textproc.NewTagger()
	ms, err := textproc.NewMultiSearcher(diffPatterns)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		sums    []scan.FileSum
		matches []textproc.FilePatternCount
		totals  []int64
		stats   []textproc.FileStats
		total   textproc.TextStats
		lines   int64
		states  [][]byte
	}
	run := func(srcs []scan.Source, workers, block int) result {
		ck := scan.NewChecksum()
		mk := textproc.NewMatchKernel(ms)
		sc := textproc.NewAnalyzerKernel(tagger)
		kernels := []scan.Kernel{ck, mk, sc}
		if err := scan.Run(context.Background(), srcs, scan.Options{Workers: workers, BlockSize: block}, kernels...); err != nil {
			t.Fatalf("workers=%d block=%d: %v", workers, block, err)
		}
		r := result{
			sums: ck.Sums(), matches: mk.Files(), totals: mk.Totals(),
			stats: sc.Files(), total: sc.Total(), lines: sc.Lines(),
		}
		for _, k := range kernels {
			st, err := scan.SnapshotKernel(k)
			if err != nil {
				t.Fatal(err)
			}
			r.states = append(r.states, st)
		}
		return r
	}

	corpora := []struct {
		name  string
		files []vfs.File
	}{
		{"random-with-oversized", chunkCorpus(t, 1, 240, 120_000)},
		{"random-small-only", chunkCorpus(t, 2, 300, 0)},
		{"single-source", chunkCorpus(t, 3, 1, 70_000)},
	}
	for _, c := range corpora {
		srcs := vfs.Sources(c.files)
		// The corpus must exercise what its name says at some worker
		// count: multi-source chunks, and a multi-source corpus's
		// oversized source alone in its chunk.
		if len(srcs) > 1 {
			b := scan.ChunkBounds(srcs, 2)
			grouped, alone := false, c.name != "random-with-oversized"
			for i := 1; i < len(b); i++ {
				grouped = grouped || b[i]-b[i-1] > 1
				alone = alone || (b[i-1] == len(srcs)/2 && b[i] == b[i-1]+1)
			}
			if !grouped || !alone {
				t.Fatalf("%s: chunk bounds %v do not exercise grouping (%v) and a lone oversized source (%v)", c.name, b, grouped, alone)
			}
		}
		for _, block := range []int{3, 4096} {
			want := run(srcs, 1, block)
			if len(want.sums) != len(srcs) {
				t.Fatalf("%s: reference run saw %d files, want %d", c.name, len(want.sums), len(srcs))
			}
			for _, workers := range []int{2, 8} {
				got := run(srcs, workers, block)
				tag := fmt.Sprintf("%s workers=%d block=%d", c.name, workers, block)
				if !reflect.DeepEqual(got.sums, want.sums) {
					t.Errorf("%s: checksums differ from Workers: 1", tag)
				}
				if !reflect.DeepEqual(got.matches, want.matches) || !reflect.DeepEqual(got.totals, want.totals) {
					t.Errorf("%s: match counts differ from Workers: 1", tag)
				}
				if !reflect.DeepEqual(got.stats, want.stats) || got.total != want.total || got.lines != want.lines {
					t.Errorf("%s: text stats differ from Workers: 1", tag)
				}
				for i := range want.states {
					if !bytes.Equal(got.states[i], want.states[i]) {
						t.Errorf("%s: kernel %d snapshot differs from Workers: 1", tag, i)
					}
				}
			}
		}
	}
}
