package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/textproc"
	"repro/internal/textproc/bmhtest"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func measureCorpus(t *testing.T, n int) *vfs.FS {
	t.Helper()
	fs := vfs.NewFS()
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("File %d says the error count is %d. Unknownzz word! lines\nhere.", i, i*3)
		if err := fs.Add(vfs.BytesFile(fmt.Sprintf("doc-%03d.txt", i), []byte(text))); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func TestMeasureMatchesSeparatePasses(t *testing.T) {
	fs := measureCorpus(t, 20)
	m, err := MeasureCtx(context.Background(), fs, MeasureOptions{
		Patterns:   []string{"error", "the"},
		Complexity: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Files != 20 {
		t.Fatalf("Files = %d, want 20", m.Files)
	}

	// Manifest equals the dedicated builder's.
	wantManifest, err := vfs.BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	manifest := make(vfs.Manifest, len(m.Sums))
	for _, s := range m.Sums {
		manifest[s.Name] = vfs.ManifestEntry{Size: s.Size, Checksum: s.Sum}
	}
	if len(manifest) != len(wantManifest) {
		t.Fatalf("manifest has %d entries, want %d", len(manifest), len(wantManifest))
	}
	for name, want := range wantManifest {
		if manifest[name] != want {
			t.Fatalf("manifest[%s] = %+v, want %+v", name, manifest[name], want)
		}
	}
	if err := manifest.VerifyCtx(context.Background(), fs); err != nil {
		t.Fatalf("measured manifest does not verify its own corpus: %v", err)
	}

	// Stats, matches and complexity equal the per-file references.
	tagger := textproc.NewTagger()
	var wantTokens, wantWords int
	var wantBytes int64
	for _, f := range fs.List() {
		data, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		wantBytes += f.Size
		st := textproc.Analyze(data)
		wantTokens += st.Tokens
		wantWords += st.Words
		if want := workload.ComplexityOf(data, tagger); m.Complexity[f.Name] != want {
			t.Fatalf("complexity[%s] = %v, want %v", f.Name, m.Complexity[f.Name], want)
		}
	}
	if m.Bytes != wantBytes {
		t.Fatalf("Bytes = %d, want %d", m.Bytes, wantBytes)
	}
	if m.Stats.Tokens != wantTokens || m.Stats.Words != wantWords {
		t.Fatalf("stats %+v, want tokens=%d words=%d", m.Stats, wantTokens, wantWords)
	}

	// Pattern totals equal the reference searcher, and per-file counts sum
	// to the totals.
	for i, p := range m.Patterns {
		s, err := bmhtest.New(p)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		var sum int64
		for _, f := range fs.List() {
			data, _ := f.ReadAll()
			want += s.CountBytes(data)
		}
		for _, fc := range m.PatternFiles {
			sum += fc.Counts[i]
		}
		if m.PatternTotals[i] != want || sum != want {
			t.Fatalf("pattern %q: total %d (files sum %d), want %d", p, m.PatternTotals[i], sum, want)
		}
	}
	if m.Matches != m.PatternTotals[0]+m.PatternTotals[1] {
		t.Fatalf("Matches = %d, want %d", m.Matches, m.PatternTotals[0]+m.PatternTotals[1])
	}
}

func TestMeasureCancellationIsTypedAndStaged(t *testing.T) {
	fs := measureCorpus(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MeasureCtx(ctx, fs, MeasureOptions{})
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled measure returned %v, want ErrCancelled", err)
	}
	if got := errs.StageOf(err); got != "measure" {
		t.Fatalf("StageOf = %q, want \"measure\"", got)
	}
}

func TestRunMeasuredFeedsComplexityProfile(t *testing.T) {
	// Big enough that the probing phase has volume to escalate over.
	fs := vfs.NewFS()
	for i := 0; i < 12; i++ {
		var b []byte
		for len(b) < 40_000 {
			b = append(b, fmt.Sprintf("File %d says the error count is %d. Unknownzz word!\n", i, i*3)...)
		}
		if err := fs.Add(vfs.BytesFile(fmt.Sprintf("doc-%03d.txt", i), b)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		App:             workload.NewGrep(),
		DeadlineSeconds: 300,
		Seed:            1,
		InitialVolume:   100_000,
		MaxVolume:       400_000,
		S0:              10_000,
		Multiples:       []int{10},
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasureCtx(context.Background(), fs, MeasureOptions{Complexity: true})
	if err != nil {
		t.Fatal(err)
	}
	// The profile lists the measured complexities in corpus order.
	profile := &corpus.Profile{FS: fs, Complexity: make([]float64, fs.Len())}
	for i, f := range fs.List() {
		profile.Complexity[i] = m.Complexity[f.Name]
	}
	res, err := p.RunProfileCtx(context.Background(), profile)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Complexity) != 12 {
		t.Fatalf("measured complexity for %d files, want 12", len(m.Complexity))
	}
	if len(res.Complexity) != 12 {
		t.Fatalf("result carries %d complexities, want the measured profile", len(res.Complexity))
	}
	// A fresh pipeline run over the measured profile reproduces the same
	// plan.
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p2.RunProfileCtx(context.Background(), profile)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Instances != res2.Plan.Instances {
		t.Fatalf("measured run plan diverged: %d instances vs %d", res.Plan.Instances, res2.Plan.Instances)
	}
}
