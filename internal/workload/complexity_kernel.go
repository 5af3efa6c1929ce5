package workload

import (
	"repro/internal/scan"
	"repro/internal/textproc"
)

// FileComplexity is one scanned file's POS-complexity estimate.
type FileComplexity struct {
	Name       string
	Complexity float64
}

// ComplexityKernel estimates per-file POS-tagging complexity in a single
// streaming pass: the stream analyzer supplies sentence-shape statistics
// and its word callback counts out-of-vocabulary tokens via the tagger's
// lexicon-membership test. The result for each file equals
// ComplexityOf(content, tagger) bit-for-bit — TagText's Unknown/Words
// ratio is exactly lexicon membership counted over non-punctuation
// tokens, so no tagging is needed.
//
// Block-retention contract: the kernel never keeps a reference into the
// delivered block — the analyzer classifies bytes through the shared
// textproc class tables as they stream past and carries only its bounded
// in-flight token, and KnownWord folds through a stack buffer. That is
// what makes this kernel safe on the zero-copy scan path, where blocks
// borrow a memory mapping instead of a private buffer.
type ComplexityKernel struct {
	tagger  *textproc.Tagger
	an      *textproc.StreamAnalyzer
	unknown int

	name string

	files []FileComplexity

	// memo collapses repeated lexicon-membership lookups; see wordMemo.
	memo wordMemo
}

// NewComplexityKernel returns a complexity kernel prototype over the
// tagger's lexicon.
func NewComplexityKernel(t *textproc.Tagger) *ComplexityKernel {
	k := &ComplexityKernel{tagger: t}
	k.an = textproc.NewStreamAnalyzer(func(word []byte) {
		if !k.memo.known(k.tagger, word) {
			k.unknown++
		}
	})
	return k
}

// Fork implements scan.Kernel: forks share the tagger (read-only lexicon)
// but nothing else.
func (k *ComplexityKernel) Fork() scan.Kernel { return NewComplexityKernel(k.tagger) }

// Begin implements scan.Kernel.
func (k *ComplexityKernel) Begin(src scan.Source) {
	k.an.Reset()
	k.unknown = 0
	k.name = src.Name
}

// Block implements scan.Kernel.
func (k *ComplexityKernel) Block(p []byte) { k.an.Block(p) }

// End implements scan.Kernel: the completed file is appended to the
// kernel's own accumulation.
func (k *ComplexityKernel) End() {
	st, _ := k.an.Finish()
	oov := 0.0
	if st.Words > 0 {
		oov = float64(k.unknown) / float64(st.Words)
	}
	k.files = append(k.files, FileComplexity{Name: k.name, Complexity: ComplexityFromStats(st, oov)})
}

// Merge implements scan.Kernel: the other kernel's accumulated files are
// appended in input order and its accumulation drained.
func (k *ComplexityKernel) Merge(other scan.Kernel) {
	o := other.(*ComplexityKernel)
	k.files = append(k.files, o.files...)
	o.files = o.files[:0]
}

// Files returns per-file complexities in input order; the slice is owned
// by the kernel.
func (k *ComplexityKernel) Files() []FileComplexity { return k.files }

const complexityKernelTag = 'X'

// Snapshot implements scan.StateCodec: the accumulated per-file
// complexities. The tagger's lexicon is configuration, not state.
func (k *ComplexityKernel) Snapshot() ([]byte, error) {
	// tag, count, then per file: name length + name, complexity.
	size := 1 + 8 + 16*len(k.files)
	for i := range k.files {
		size += len(k.files[i].Name)
	}
	var e scan.StateEncoder
	e.Grow(size)
	e.Tag(complexityKernelTag)
	e.Int(len(k.files))
	for _, f := range k.files {
		e.Str(f.Name)
		e.F64(f.Complexity)
	}
	return e.Bytes(), nil
}

// Restore implements scan.StateCodec.
func (k *ComplexityKernel) Restore(state []byte) error {
	d := scan.NewStateDecoder(state)
	d.Tag(complexityKernelTag)
	n := d.Len()
	files := make([]FileComplexity, 0, n)
	for i := 0; i < n; i++ {
		files = append(files, FileComplexity{Name: d.Str(), Complexity: d.F64()})
	}
	if err := d.Finish(); err != nil {
		return err
	}
	k.files = files
	return nil
}

// Map returns the complexities keyed by file name — the shape
// core.Pipeline's profiled runs consume.
func (k *ComplexityKernel) Map() map[string]float64 {
	m := make(map[string]float64, len(k.files))
	for _, f := range k.files {
		m[f.Name] = f.Complexity
	}
	return m
}
