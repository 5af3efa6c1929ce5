package core_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/scan"
	"repro/internal/scan/kerneltest"
	"repro/internal/vfs"
)

// measurementDigest scans the files with the full kernel set — checksum,
// match, analyzer with the lexicon — and hashes everything the scan
// produces: every kernel's Snapshot bytes and every field of the assembled
// Measurement, floats by their bits.
func measurementDigest(t *testing.T, files []vfs.File, workers, block int) string {
	t.Helper()
	pats := []string{"the", "and", "president", "market", "city", "nation", "report", "error"}
	mk, err := core.NewMeasureKernels(core.MeasureOptions{Patterns: pats, Complexity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.Run(context.Background(), files, scan.Options{Workers: workers, BlockSize: block}, mk.List...); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, k := range mk.List {
		st, err := scan.SnapshotKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(st)
	}
	m := mk.Measurement()
	fmt.Fprintf(h, "%d %d %d %d %d %x %d|", m.Files, m.Bytes, m.Stats.Tokens, m.Stats.Words, m.Stats.Sentences, math.Float64bits(m.Stats.MeanSentence), m.Stats.MaxSentence)
	fmt.Fprintf(h, "%d %v %d|", m.Lines, m.PatternTotals, m.Matches)
	for _, f := range m.FileStats {
		fmt.Fprintf(h, "%s %d %d %d %x %d %d %d|", f.Name, f.Stats.Tokens, f.Stats.Words, f.Stats.Sentences, math.Float64bits(f.Stats.MeanSentence), f.Stats.MaxSentence, f.Lines, f.Unknown)
	}
	for _, f := range m.PatternFiles {
		fmt.Fprintf(h, "%s %d %v %d|", f.Name, f.Bytes, f.Counts, f.Matches)
	}
	names := make([]string, 0, len(m.Complexity))
	for n := range m.Complexity {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s %x|", n, math.Float64bits(m.Complexity[n]))
	}
	for _, s := range m.Sums {
		fmt.Fprintf(h, "%s %d %x|", s.Name, s.Size, s.Sum)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:24]
}

// TestMeasurementMatchesRecordedDigests holds the scan's whole output to
// digests recorded with the per-byte analyzer and the map-backed lexicon
// lookup that the window loop and the frozen key set replaced (PR 18's
// tree): the two shapes of corpus the repository benchmark scans — many
// small files, and the same bytes as 1 MiB units — and prose that is not
// the generator's, at every worker count and conformance block size. A
// change that means to alter what a scan reports re-records them.
func TestMeasurementMatchesRecordedDigests(t *testing.T) {
	gen := func(n int) []vfs.File {
		spec := corpus.Text400K(1)
		spec.NumFiles = n
		fs, err := corpus.GenerateWithContentEagerCtx(context.Background(), spec, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fs.List()
	}
	prose := corpus.NewGenerator(corpus.NewsStyle(), 6).Text(400_000)
	corpora := []struct {
		name   string
		files  []vfs.File
		digest string
	}{
		{"small-files", gen(1000), "e0ab2dfbc31163a489644657"},
		{"wrapped", []vfs.File{vfs.BytesFile("wrapped-a", kerneltest.Prose(prose[:150_000], 1000)), vfs.BytesFile("wrapped-b", kerneltest.Prose(prose[150_000:], 1000))}, "d4812267335d0d827a913a59"},
		{"accented", []vfs.File{vfs.BytesFile("accented", kerneltest.Prose(prose[:200_000], 4))}, "d0f42f04398494d4fe0e3005"},
	}
	for _, c := range corpora {
		for _, workers := range []int{1, 2, 8} {
			for _, block := range kerneltest.BlockSizes {
				if got := measurementDigest(t, c.files, workers, block); got != c.digest {
					t.Errorf("%s, %d workers, %d-byte blocks: digest %s, recorded %s", c.name, workers, block, got, c.digest)
				}
			}
		}
	}
	if testing.Short() {
		t.Skip("skipping the benchmark-sized corpora")
	}
	files := gen(12_000)
	var all []byte
	for _, f := range files {
		data, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	var units []vfs.File
	for off := 0; off < len(all); off += 1 << 20 {
		units = append(units, vfs.BytesFile(fmt.Sprintf("unit-%06d", off>>20), all[off:min(off+1<<20, len(all))]))
	}
	for _, workers := range []int{1, 2, 8} {
		if got, want := measurementDigest(t, files, workers, 0), "3db6b3f53ddd24db4417e109"; got != want {
			t.Errorf("12 000 files, %d workers: digest %s, recorded %s", workers, got, want)
		}
		if got, want := measurementDigest(t, units, workers, 0), "770e606a35d1466ecc14960a"; got != want {
			t.Errorf("1 MiB units, %d workers: digest %s, recorded %s", workers, got, want)
		}
	}
}
