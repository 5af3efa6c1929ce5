package probe

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/binpack"
)

func sampleCorpus(n int) []binpack.Item {
	items := make([]binpack.Item, n)
	for i := range items {
		items[i] = binpack.Item{ID: fmt.Sprintf("s%05d", i), Size: int64(1000 + i%100)}
	}
	return items
}

func TestSampleWithoutReplacementBasics(t *testing.T) {
	files := sampleCorpus(1000)
	r := rand.New(rand.NewSource(1))
	sample, err := SampleWithoutReplacement(files, 50_000, r)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	seen := map[string]bool{}
	for _, f := range sample {
		if seen[f.ID] {
			t.Fatalf("file %s drawn twice", f.ID)
		}
		seen[f.ID] = true
		total += f.Size
	}
	if total < 50_000 {
		t.Errorf("sample volume %d below target", total)
	}
	// Overshoot bounded by one file.
	if total > 50_000+1100 {
		t.Errorf("sample overshoot too large: %d", total)
	}
}

func TestSampleInputNotMutated(t *testing.T) {
	files := sampleCorpus(100)
	before := append([]binpack.Item(nil), files...)
	r := rand.New(rand.NewSource(2))
	if _, err := SampleWithoutReplacement(files, 10_000, r); err != nil {
		t.Fatal(err)
	}
	for i := range files {
		if files[i] != before[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func TestSampleErrors(t *testing.T) {
	files := sampleCorpus(10)
	r := rand.New(rand.NewSource(3))
	if _, err := SampleWithoutReplacement(files, 0, r); err == nil {
		t.Error("expected error for zero volume")
	}
	if _, err := SampleWithoutReplacement(files, 1_000_000, r); err == nil {
		t.Error("expected error for oversized sample")
	}
	if _, err := SampleWithoutReplacement(files, 100, nil); err == nil {
		t.Error("expected error for nil rng")
	}
}

func TestSampleRandomness(t *testing.T) {
	files := sampleCorpus(1000)
	a, err := SampleWithoutReplacement(files, 20_000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleWithoutReplacement(files, 20_000, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i].ID != b[i].ID {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
	// Same seed reproduces exactly.
	c, err := SampleWithoutReplacement(files, 20_000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(c) {
		t.Fatal("same seed, different sample size")
	}
	for i := range a {
		if a[i].ID != c[i].ID {
			t.Fatal("same seed, different sample")
		}
	}
}
