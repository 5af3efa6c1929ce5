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

func TestFacadeExperiment(t *testing.T) {
	rep, err := RunExperiment(context.Background(), "costfn", ExperimentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "costfn" {
		t.Errorf("report ID = %s", rep.ID)
	}
	if _, err := RunExperiment(context.Background(), "bogus", ExperimentConfig{}); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestFacadePlannerAndCloud(t *testing.T) {
	c := NewCloud(1)
	if c.Region().Name != "us-east" {
		t.Errorf("region = %s", c.Region().Name)
	}
	tg := NewTagger()
	_, res := tg.TagText([]byte("the cat sat."))
	if res.Words != 3 {
		t.Errorf("tagger words = %d", res.Words)
	}
}

func TestFacadeProfilePipeline(t *testing.T) {
	profile, err := GenerateCorpusProfile(Text400K(0.002), 5, RampComplexity{From: 0.9, To: 1.3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(PipelineConfig{
		Seed:            5,
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
	res, err := p.RunProfileCtx(context.Background(), profile)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complexity == nil || res.Plan == nil {
		t.Fatal("profiled run incomplete")
	}
}
