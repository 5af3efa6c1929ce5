package probe

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

func TestExploreSubsetsPoolsPoints(t *testing.T) {
	items := corpusItems(t, corpus.Text400K(0.05), 61) // ~40 MB corpus
	c, in := qualified(t, 61)
	h := NewHarness(c, in, workload.NewGrep(), workload.Local{})
	r := rand.New(rand.NewSource(1))
	ms, xs, ys, err := h.ExploreSubsets(context.Background(), items, 5, 2_000_000, 100_000, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("measurements = %d, want 5", len(ms))
	}
	// 5 samples x 5 repeats = 25 pooled points.
	if len(xs) != 25 || len(ys) != 25 {
		t.Fatalf("points = %d/%d, want 25", len(xs), len(ys))
	}
	// Equal-volume samples alone cannot determine a slope; pool a second
	// exploration at a different volume (the paper pools samples with its
	// escalation measurements) and the combined fit must be sane.
	_, xs2, ys2, err := h.ExploreSubsets(context.Background(), items, 3, 6_000_000, 100_000, r)
	if err != nil {
		t.Fatal(err)
	}
	m, err := perfmodel.FitAffine(append(xs, xs2...), append(ys, ys2...))
	if err != nil {
		t.Fatal(err)
	}
	if m.A <= 0 {
		t.Errorf("fitted slope %v not positive", m.A)
	}
	// Sample volumes may overshoot the target by at most one file.
	for _, m := range ms {
		if m.Volume < 2_000_000 {
			t.Errorf("subset volume %d below target", m.Volume)
		}
	}
}

func TestExploreSubsetsOriginalSegmentation(t *testing.T) {
	items := corpusItems(t, corpus.Text400K(0.02), 62)
	c, in := qualified(t, 62)
	h := NewHarness(c, in, workload.NewPOS(), workload.Local{})
	r := rand.New(rand.NewSource(2))
	ms, _, _, err := h.ExploreSubsets(context.Background(), items, 3, 1_000_000, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.UnitSize != 0 {
			t.Errorf("unit size = %d, want original", m.UnitSize)
		}
		if m.Files < 2 {
			t.Errorf("subset has %d files; original segmentation expected many", m.Files)
		}
	}
}

func TestExploreSubsetsRestoresKeyFn(t *testing.T) {
	items := corpusItems(t, corpus.Text400K(0.02), 63)
	c, in := qualified(t, 63)
	h := NewHarness(c, in, workload.NewGrep(), workload.Local{})
	before := h.DatasetKeyFn(1, 2)
	r := rand.New(rand.NewSource(3))
	if _, _, _, err := h.ExploreSubsets(context.Background(), items, 2, 500_000, 50_000, r); err != nil {
		t.Fatal(err)
	}
	if h.DatasetKeyFn(1, 2) != before {
		t.Error("DatasetKeyFn not restored after exploration")
	}
}

func TestExploreSubsetsExhaustion(t *testing.T) {
	items := corpusItems(t, corpus.Text400K(0.001), 64) // tiny corpus
	c, in := qualified(t, 64)
	h := NewHarness(c, in, workload.NewGrep(), workload.Local{})
	r := rand.New(rand.NewSource(4))
	if _, _, _, err := h.ExploreSubsets(context.Background(), items, 10, 10_000_000, 0, r); err == nil {
		t.Error("expected exhaustion error")
	}
}
