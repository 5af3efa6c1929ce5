package experiments

import (
	"context"
	"fmt"

	"repro/internal/corpus"
)

// Fig1a reproduces the HTML_18mil size histogram (10 kB bins up to
// 300 kB). Base scale generates 18,000 files (0.1% of the paper's 18M);
// the distribution shape, not the count, is the reproduced artefact.
func Fig1a(_ context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("fig1a", "HTML_18mil frequency distribution (10 kB bins)")
	spec := corpus.HTML18Mil(0.001 * cfg.Scale)
	fs, err := corpus.Generate(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	h, err := corpus.SizeHistogram(fs, 10*corpus.KB, 300*corpus.KB)
	if err != nil {
		return nil, err
	}
	rep.note("paper: 18M files, ~900 GB, majority < 50 kB, long tail, max 43 MB")
	rep.note("generated: %d files, %s (scale %.4g of the paper's corpus)", fs.Len(), fmtBytes(fs.TotalSize()), 0.001*cfg.Scale)
	rep.Header = []string{"bin", "count", "bar"}
	bins := h.Bins()
	var peak int64 = 1
	for _, c := range bins {
		if c > peak {
			peak = c
		}
	}
	for i, c := range bins {
		bar := ""
		for j := int64(0); j < c*40/peak; j++ {
			bar += "#"
		}
		rep.addRow(fmt.Sprintf("%d-%d kB", i*10, (i+1)*10), fmt.Sprintf("%d", c), bar)
	}
	rep.addRow("300 kB+ (tail)", fmt.Sprintf("%d", h.Overflow()), "")
	var maxSize int64
	for _, s := range fs.Sizes() {
		if s > maxSize {
			maxSize = s
		}
	}
	rep.Values["files"] = float64(fs.Len())
	rep.Values["total_bytes"] = float64(fs.TotalSize())
	rep.Values["mean_bytes"] = float64(fs.TotalSize()) / float64(fs.Len())
	rep.Values["frac_below_50kB"] = h.FractionBelow(50 * corpus.KB)
	rep.Values["tail_files"] = float64(h.Overflow())
	rep.Values["max_bytes"] = float64(maxSize)
	return rep, nil
}

// Fig1b reproduces the Text_400K size histogram (1 kB bins up to 160 kB).
// Base scale generates 20,000 files (5% of the paper's 400k).
func Fig1b(_ context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("fig1b", "Text_400K frequency distribution (1 kB bins)")
	spec := corpus.Text400K(0.05 * cfg.Scale)
	fs, err := corpus.Generate(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	h, err := corpus.SizeHistogram(fs, corpus.KB, 160*corpus.KB)
	if err != nil {
		return nil, err
	}
	rep.note("paper: 400k files, ~1 GB, >40%% under 1 kB, majority < 5 kB, max 705 kB")
	rep.note("generated: %d files, %s", fs.Len(), fmtBytes(fs.TotalSize()))
	rep.Header = []string{"bin", "count", "bar"}
	bins := h.Bins()
	var peak int64 = 1
	for _, c := range bins {
		if c > peak {
			peak = c
		}
	}
	// Print the first 20 bins (the long tail continues to 160 kB).
	for i := 0; i < 20 && i < len(bins); i++ {
		bar := ""
		for j := int64(0); j < bins[i]*40/peak; j++ {
			bar += "#"
		}
		rep.addRow(fmt.Sprintf("%d-%d kB", i, i+1), fmt.Sprintf("%d", bins[i]), bar)
	}
	var maxSize int64
	for _, s := range fs.Sizes() {
		if s > maxSize {
			maxSize = s
		}
	}
	rep.Values["files"] = float64(fs.Len())
	rep.Values["total_bytes"] = float64(fs.TotalSize())
	rep.Values["frac_below_1kB"] = h.FractionBelow(corpus.KB)
	rep.Values["frac_below_5kB"] = h.FractionBelow(5 * corpus.KB)
	rep.Values["max_bytes"] = float64(maxSize)
	return rep, nil
}
