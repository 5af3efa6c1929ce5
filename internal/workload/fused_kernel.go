package workload

import (
	"repro/internal/scan"
	"repro/internal/textproc"
)

// StatsComplexityKernel computes per-file text statistics AND per-file
// POS-tagging complexity from one shared StreamAnalyzer pass. Running
// textproc.StatsKernel and ComplexityKernel side by side costs two full
// analyzer passes over every block — the byte-classification state machine
// runs twice and tokenises the corpus twice. Both kernels consume exactly
// the analyzer's outputs (the stats kernel its TextStats and line count,
// the complexity kernel the same TextStats plus the word callback's
// out-of-vocabulary count), so one analyzer can feed both. The fused
// kernel is pinned bit-identical to the separate pair by a differential
// test: the stats side produces what StatsKernel produces and the
// complexity side what ComplexityKernel produces, file by file.
//
// Block-retention contract: identical to the constituent kernels — the
// analyzer carries only its bounded in-flight token and KnownWord folds
// through a stack buffer, so the kernel is safe on the zero-copy path.
type StatsComplexityKernel struct {
	tagger  *textproc.Tagger
	an      *textproc.StreamAnalyzer
	unknown int

	name string

	statFiles []textproc.FileStats
	total     textproc.TextStats
	lines     int64
	cxFiles   []FileComplexity

	// memo collapses repeated lexicon-membership lookups; see wordMemo.
	memo wordMemo
}

// NewStatsComplexityKernel returns a fused stats+complexity kernel
// prototype over the tagger's lexicon.
func NewStatsComplexityKernel(t *textproc.Tagger) *StatsComplexityKernel {
	k := &StatsComplexityKernel{tagger: t}
	k.an = textproc.NewStreamAnalyzer(func(word []byte) {
		if !k.memo.known(t, word) {
			k.unknown++
		}
	})
	return k
}

// Fork implements scan.Kernel: forks share the tagger (read-only lexicon)
// but nothing else.
func (k *StatsComplexityKernel) Fork() scan.Kernel { return NewStatsComplexityKernel(k.tagger) }

// Begin implements scan.Kernel.
func (k *StatsComplexityKernel) Begin(src scan.Source) {
	k.an.Reset()
	k.unknown = 0
	k.name = src.Name
}

// Block implements scan.Kernel: one analyzer pass serves both outputs.
func (k *StatsComplexityKernel) Block(p []byte) { k.an.Block(p) }

// End implements scan.Kernel: the completed file is appended to both
// accumulations and folded into the stats totals, mirroring
// StatsKernel.End and ComplexityKernel.End operation for operation so
// both sides stay bit-identical to the unfused kernels.
func (k *StatsComplexityKernel) End() {
	st, lines := k.an.Finish()
	k.statFiles = append(k.statFiles, textproc.FileStats{Name: k.name, Stats: st, Lines: lines})
	k.total.Tokens += st.Tokens
	k.total.Words += st.Words
	k.total.Sentences += st.Sentences
	if st.MaxSentence > k.total.MaxSentence {
		k.total.MaxSentence = st.MaxSentence
	}
	k.lines += lines
	oov := 0.0
	if st.Words > 0 {
		oov = float64(k.unknown) / float64(st.Words)
	}
	k.cxFiles = append(k.cxFiles, FileComplexity{Name: k.name, Complexity: ComplexityFromStats(st, oov)})
}

// Merge implements scan.Kernel: the other kernel's accumulated files are
// appended in input order on both sides, its totals folded in, and its
// accumulation drained. The integer folds are associative, so folding a
// shard-sized accumulation is bit-identical to folding its files one at
// a time.
func (k *StatsComplexityKernel) Merge(other scan.Kernel) {
	o := other.(*StatsComplexityKernel)
	k.statFiles = append(k.statFiles, o.statFiles...)
	k.total.Tokens += o.total.Tokens
	k.total.Words += o.total.Words
	k.total.Sentences += o.total.Sentences
	if o.total.MaxSentence > k.total.MaxSentence {
		k.total.MaxSentence = o.total.MaxSentence
	}
	k.lines += o.lines
	k.cxFiles = append(k.cxFiles, o.cxFiles...)
	o.statFiles = o.statFiles[:0]
	o.total = textproc.TextStats{}
	o.lines = 0
	o.cxFiles = o.cxFiles[:0]
}

// StatsFiles returns per-file stats in input order; the slice is owned by
// the kernel.
func (k *StatsComplexityKernel) StatsFiles() []textproc.FileStats { return k.statFiles }

// Total returns corpus-wide statistics, mean recomputed over all
// sentences — exactly StatsKernel.Total.
func (k *StatsComplexityKernel) Total() textproc.TextStats {
	t := k.total
	if t.Sentences > 0 {
		t.MeanSentence = float64(t.Words) / float64(t.Sentences)
	}
	return t
}

// Lines returns the corpus-wide newline count.
func (k *StatsComplexityKernel) Lines() int64 { return k.lines }

// Files returns per-file complexities in input order; the slice is owned
// by the kernel.
func (k *StatsComplexityKernel) Files() []FileComplexity { return k.cxFiles }

const fusedKernelTag = 'F'

func encodeTextStats(e *scan.StateEncoder, st textproc.TextStats) {
	e.Int(st.Tokens)
	e.Int(st.Words)
	e.Int(st.Sentences)
	e.F64(st.MeanSentence)
	e.Int(st.MaxSentence)
}

func decodeTextStats(d *scan.StateDecoder) textproc.TextStats {
	return textproc.TextStats{
		Tokens:       d.Int(),
		Words:        d.Int(),
		Sentences:    d.Int(),
		MeanSentence: d.F64(),
		MaxSentence:  d.Int(),
	}
}

// Snapshot implements scan.StateCodec: both accumulations plus the stats
// totals. The tagger's lexicon is configuration, not state.
func (k *StatsComplexityKernel) Snapshot() ([]byte, error) {
	// tag; count and per file: name length + name, five stats, lines;
	// the totals' five stats and lines; count and per file: name length
	// + name, complexity.
	size := 1 + 8 + 56*len(k.statFiles) + 48 + 8 + 16*len(k.cxFiles)
	for i := range k.statFiles {
		size += len(k.statFiles[i].Name)
	}
	for i := range k.cxFiles {
		size += len(k.cxFiles[i].Name)
	}
	var e scan.StateEncoder
	e.Grow(size)
	e.Tag(fusedKernelTag)
	e.Int(len(k.statFiles))
	for _, f := range k.statFiles {
		e.Str(f.Name)
		encodeTextStats(&e, f.Stats)
		e.I64(f.Lines)
	}
	encodeTextStats(&e, k.total)
	e.I64(k.lines)
	e.Int(len(k.cxFiles))
	for _, f := range k.cxFiles {
		e.Str(f.Name)
		e.F64(f.Complexity)
	}
	return e.Bytes(), nil
}

// Restore implements scan.StateCodec.
func (k *StatsComplexityKernel) Restore(state []byte) error {
	d := scan.NewStateDecoder(state)
	d.Tag(fusedKernelTag)
	n := d.Len()
	statFiles := make([]textproc.FileStats, 0, n)
	for i := 0; i < n; i++ {
		statFiles = append(statFiles, textproc.FileStats{Name: d.Str(), Stats: decodeTextStats(d), Lines: d.I64()})
	}
	total := decodeTextStats(d)
	lines := d.I64()
	m := d.Len()
	cxFiles := make([]FileComplexity, 0, m)
	for i := 0; i < m; i++ {
		cxFiles = append(cxFiles, FileComplexity{Name: d.Str(), Complexity: d.F64()})
	}
	if err := d.Finish(); err != nil {
		return err
	}
	k.statFiles, k.total, k.lines, k.cxFiles = statFiles, total, lines, cxFiles
	return nil
}

// Map returns the complexities keyed by file name — the shape
// core.Pipeline's profiled runs consume.
func (k *StatsComplexityKernel) Map() map[string]float64 {
	m := make(map[string]float64, len(k.cxFiles))
	for _, f := range k.cxFiles {
		m[f.Name] = f.Complexity
	}
	return m
}
