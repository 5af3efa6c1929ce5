package textproc_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/scan/kerneltest"
	"repro/internal/textproc"
)

// TestStatsKernelConformance pins the portable-state contract for the
// analyzer kernel, with and without a lexicon.
func TestStatsKernelConformance(t *testing.T) {
	t.Run("stats", func(t *testing.T) {
		kerneltest.Conformance(t, textproc.NewStatsKernel(), nil)
	})
	t.Run("lexicon", func(t *testing.T) {
		kerneltest.Conformance(t, textproc.NewAnalyzerKernel(textproc.NewTagger()), nil)
	})
}

// TestStatsKernelRejectsForeignStates: a state written by one of the
// kernels this one replaced (tags 'S', 'F' and 'X'), or by a kernel
// configured the other way round about the lexicon, is ErrInvalid — it
// must never be parsed as if the layouts agreed.
func TestStatsKernelRejectsForeignStates(t *testing.T) {
	plain, lexicon := textproc.NewStatsKernel(), textproc.NewAnalyzerKernel(textproc.NewTagger())
	plainState, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	lexiconState, err := lexicon.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []byte{'S', 'F', 'X'} {
		old := append([]byte{tag}, plainState[1:]...)
		if err := textproc.NewStatsKernel().Restore(old); !errors.Is(err, errs.ErrInvalid) {
			t.Errorf("state tagged %q restored with %v, want ErrInvalid", tag, err)
		}
	}
	if err := lexicon.Restore(plainState); !errors.Is(err, errs.ErrInvalid) {
		t.Errorf("lexicon-less state into a lexicon kernel: %v, want ErrInvalid", err)
	}
	if err := plain.Restore(lexiconState); !errors.Is(err, errs.ErrInvalid) {
		t.Errorf("lexicon state into a lexicon-less kernel: %v, want ErrInvalid", err)
	}
}

// TestMatchKernelConformance pins the portable-state contract for the
// grep kernel, in both exact and case-folded configurations — the folded
// automaton has a different byte-class table, so its boundary-straddling
// behaviour is pinned separately — and on both engines: the production
// 8-pattern set (42 pattern bytes, bitap) and a set past bitap's 64
// (Aho–Corasick). The kernel is a scan.SumCarrier, so each run also holds
// BlockSum to Block and the carried sum to the member checksum.
func TestMatchKernelConformance(t *testing.T) {
	for _, c := range []struct {
		name     string
		patterns []string
		folded   bool
	}{
		{"exact", []string{"the", "error", "Unknownzz"}, false},
		{"folded", []string{"the", "error", "Unknownzz"}, true},
		{"production", []string{"the", "and", "president", "market", "city", "nation", "report", "error"}, false},
		{"aho-corasick", []string{"the", "and", "president", "market", "city", "nation", "report", "error",
			"sentences", "quotes", "ellipsis", "unknownzz", "line three", "rate is"}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			newSearcher := textproc.NewMultiSearcher
			if c.folded {
				newSearcher = textproc.NewFoldedMultiSearcher
			}
			ms, err := newSearcher(c.patterns)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(strings.Join(c.patterns, "")); c.name == "aho-corasick" && n <= 64 {
				t.Fatalf("the Aho–Corasick set has %d pattern bytes; bitap takes up to 64", n)
			}
			kerneltest.Conformance(t, textproc.NewMatchKernel(ms), nil)
		})
	}
}
