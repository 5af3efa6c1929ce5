package repro

import (
	"context"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	fs, err := GenerateCorpus(Text400K(0.002), 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(PipelineConfig{
		Seed:            42,
		App:             NewPOSApp(),
		DeadlineSeconds: 120,
		InitialVolume:   100_000,
		MaxVolume:       1_500_000,
		S0:              10_000,
		Multiples:       []int{10},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan")
	}
	out, err := p.ExecuteCtx(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	if out.MakespanS <= 0 {
		t.Error("no makespan")
	}
}

func TestFacadeReshapeAndSearch(t *testing.T) {
	fs, err := GenerateCorpusWithContent(Text400K(0.0002), 7) // 80 files
	if err != nil {
		t.Fatal(err)
	}
	merged, bins, err := Reshape(fs, 50_000, "unit")
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalSize() != fs.TotalSize() {
		t.Error("reshape changed total size")
	}
	if len(bins) != merged.Len() {
		t.Error("manifest mismatch")
	}
	grep := MeasureOptions{Patterns: []string{"the"}}
	before, err := MeasureCtx(context.Background(), fs, grep)
	if err != nil {
		t.Fatal(err)
	}
	after, err := MeasureCtx(context.Background(), merged, grep)
	if err != nil {
		t.Fatal(err)
	}
	// Concatenation can only add matches that span member boundaries
	// (exact grep semantics); it can never lose any.
	boundaries := int64(fs.Len() - merged.Len())
	if after.Matches < before.Matches || after.Matches > before.Matches+boundaries {
		t.Errorf("grep matches %d outside [%d, %d]", after.Matches, before.Matches, before.Matches+boundaries)
	}
}
