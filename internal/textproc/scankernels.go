package textproc

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"unicode"
	"unicode/utf8"

	"repro/internal/errs"
	"repro/internal/scan"
)

// StreamAnalyzer computes TextStats incrementally over a byte stream fed
// in arbitrary blocks, producing exactly what Analyze returns on the
// concatenated bytes — the differential tests pin this bit-for-bit. The
// cross-block carry is bounded: the in-flight token only (an open word's
// first lexKeyMax+1 bytes when a lexicon is set, or at most the first four
// bytes of an open rune chunk); completed bytes are never re-buffered.
//
// With a lexicon set the analyzer also counts the words that are not in
// it — every non-punctuation token, exactly TagText's Unknown — in the
// same pass. The word callback is the tests' view of the same tokens
// (word bytes are valid only during the call); it alone carries an open
// word's bytes without bound.
type StreamAnalyzer struct {
	onWord func(word []byte)
	tagger *Tagger

	st      TextStats
	lines   int64
	unknown int

	sentWords    int // words in the current (open) sentence
	tokensInSent int // tokens in the current (open) sentence

	inWord  bool
	wordBuf []byte              // open word's bytes carried across blocks
	carry   [lexKeyMax + 1]byte // wordBuf's storage in lexicon mode: one byte past the longest key says "too long"

	inChunk  bool
	chunkLen int     // total bytes in the open rune chunk (may exceed 4)
	chunkBuf [4]byte // first (up to) four bytes — all DecodeRune can use
}

// Reset clears all accumulation so the analyzer can take a new stream.
// The word consumer and carry buffer capacity are retained.
func (a *StreamAnalyzer) Reset() {
	a.st = TextStats{}
	a.lines = 0
	a.unknown = 0
	a.sentWords = 0
	a.tokensInSent = 0
	a.inWord = false
	a.wordBuf = a.wordBuf[:0]
	a.inChunk = false
	a.chunkLen = 0
}

// Block feeds the next window of the stream. Token boundaries are the
// tokenizer's: words are maximal [a-zA-Z0-9'] runs, whitespace separates,
// and any other byte starts a chunk that absorbs following UTF-8
// continuation bytes.
//
// Cross-block carries (an open chunk or word) can only be live for the
// first bytes of a block, so they are resolved once up front. After that
// the block alternates between two loops that hand over at token
// boundaries: windows, which takes every 64-byte stretch of pure ASCII
// with lexKeyMax readable bytes after it, the first of them ASCII, and the
// per-byte streamClass loop, which takes the rest — a carried word's
// continuation, a stretch with a byte >= 0x80 (only it knows rune chunks),
// the block's tail. The differential, conformance and fuzz tests pin the
// result bit-identical to Analyze at every block split.
func (a *StreamAnalyzer) Block(p []byte) {
	i, n := 0, len(p)
	if a.inChunk {
		if i = a.chunkTail(p, 0); a.inChunk {
			return
		}
	}
	// A word carried from the previous block either continues into this
	// block (the byte loop's word case extends it via wordBuf) or ends
	// right here with all its bytes already carried.
	if a.inWord && i < n && !isWordByte(p[i]) {
		a.endWord(nil)
	}
	// The byte loop takes one window's worth of bytes, then the window loop
	// gets another look — twice as many each time it comes back empty-handed,
	// so that text dense with bytes >= 0x80 does not pay for a
	// classification it discards every 64 bytes; one window's worth again
	// once it does not. Past 4 KiB a discarded look is 0.2 % of the byte
	// loop's time and a longer stint would only keep ASCII from the window
	// loop. A token that starts before lim is finished past it.
	for stint := windowBytes; i < n; stint = min(2*stint, 64*windowBytes) {
		if !a.inWord {
			if next := a.windows(p, i); next > i {
				i, stint = next, windowBytes
			}
		}
		for lim := min(i+stint, n); i < lim; {
			c := p[i]
			switch streamClass[c] {
			case scWord:
				start := i
				i = wordRunEnd(p, i+1)
				if a.inWord = i == n; a.inWord {
					a.carryWord(p[start:])
				} else {
					a.endWord(p[start:i])
				}
			case scSpace:
				i++
			case scNewline:
				a.lines++
				i++
			default: // scOther: a rune chunk
				a.chunkBuf[0] = c
				a.chunkLen = 1
				i = a.chunkTail(p, i+1)
			}
		}
	}
}

// chunkTail absorbs the open rune chunk's continuation bytes from p[i:]
// and returns the index after them; the chunk closes there unless the
// block ends first.
func (a *StreamAnalyzer) chunkTail(p []byte, i int) int {
	for ; i < len(p) && p[i]&0xC0 == 0x80; i++ {
		if a.chunkLen < len(a.chunkBuf) {
			a.chunkBuf[a.chunkLen] = p[i]
		}
		a.chunkLen++
	}
	if a.inChunk = i == len(p); !a.inChunk {
		a.finishChunk()
	}
	return i
}

const windowBytes = 64

// windows consumes p from the token boundary i in fixed 64-byte windows
// and returns where the byte loop must take over: the first window it
// cannot handle (a byte >= 0x80 in it or right after it, or too close to
// the block's end), backed up to the start of the word still open there,
// which it has not counted.
//
// Each window is classified by eight independent SWAR loads into two
// bitmaps, one bit per byte — word bytes and whitespace — and the tokens
// are read off those: a word ends where the word bits fall, so the
// window's words are a popcount; every byte in neither map is a one-byte
// token (punctuation, a control byte), a few per hundred bytes of prose,
// and only those are visited one by one. The stride is fixed, so no
// window's loads wait on the previous window's results. Newlines are
// counted over the whole stretch at the end.
func (a *StreamAnalyzer) windows(p []byte, i int) int {
	from := i
	open := i         // start of the word-byte run that reaches the window's base
	prev := uint64(0) // 1 iff that run is not empty
	words := 0        // completed words not yet folded into the counters
	for ; i+windowBytes+lexKeyMax <= len(p); i += windowBytes {
		var w, sp uint64
		// The byte after counts: were it a continuation byte, a chunk that
		// the window's last byte opens would absorb it.
		any := uint64(p[i+windowBytes])
		for l := uint(0); l < windowBytes; l += 8 {
			x := binary.LittleEndian.Uint64(p[i+int(l):])
			any |= x
			w |= movemask8(wordMask8(x)) << l
			sp |= movemask8(spaceMask8(x)) << l
		}
		if any&swarHigh != 0 {
			break
		}
		other := ^(w | sp)
		ends := ^w & (w<<1 | prev)
		for ; other != 0; other &= other - 1 {
			j := bits.TrailingZeros64(other)
			before := uint64(2)<<j - 1 // a word that ends at byte j closed before it
			words += bits.OnesCount64(ends & before)
			ends &^= before
			a.st.Tokens++
			a.tokensInSent++
			if ch := p[i+j]; ch == '.' || ch == '!' || ch == '?' {
				a.addWords(words)
				words = 0
				a.closeSentence()
			}
		}
		words += bits.OnesCount64(ends)
		if a.tagger != nil || a.onWord != nil {
			a.windowWords(p, i, w, prev, open)
		}
		if run := bits.LeadingZeros64(^w); run < windowBytes {
			open = i + windowBytes - run
		}
		prev = w >> 63
	}
	a.addWords(words)
	// The open word that [open, i) may hold has no newline in it.
	a.lines += int64(bytes.Count(p[from:i], []byte{'\n'}))
	return open
}

// windowWords hands the consumer every word that ends inside the window
// at p[i:], whose word bytes are w; the first of them started at open, in
// an earlier window of the same stretch, when prev is set. lexKeyMax bytes
// are readable from any word's start: windows leaves that margin after
// the window, and a word that started before it has the window itself.
// The test callback and the lexicon each get a loop of their own, so the
// lexicon's loop tests nothing per word but the probe.
func (a *StreamAnalyzer) windowWords(p []byte, i int, w, prev uint64, open int) {
	starts, ends := w&^(w<<1|prev), ^w&(w<<1|prev)
	// After the word that straddles in, what is left pairs up in order:
	// every end with a start in this window.
	win := (*[windowBytes + lexKeyMax]byte)(p[i:])
	if a.onWord != nil {
		if prev != 0 && ends != 0 {
			a.onWord(p[open : i+bits.TrailingZeros64(ends)])
			ends &= ends - 1
		}
		for ; ends != 0; starts, ends = starts&(starts-1), ends&(ends-1) {
			s := bits.TrailingZeros64(starts)
			a.onWord(win[s:bits.TrailingZeros64(ends)])
		}
		return
	}
	set := a.tagger.set
	unknown := 0
	if prev != 0 && ends != 0 {
		if n := i + bits.TrailingZeros64(ends) - open; n > lexKeyMax ||
			!set.has(lexKey(binary.LittleEndian.Uint64(p[open:]), binary.LittleEndian.Uint64(p[open+8:]), n)) {
			unknown++
		}
		ends &= ends - 1
	}
	for ; ends != 0; starts, ends = starts&(starts-1), ends&(ends-1) {
		s := bits.TrailingZeros64(starts)
		if n := bits.TrailingZeros64(ends) - s; n > lexKeyMax ||
			!set.has(lexKey(binary.LittleEndian.Uint64(win[s:]), binary.LittleEndian.Uint64(win[s+8:]), n)) {
			unknown++
		}
	}
	a.unknown += unknown
}

// emit hands the consumer a completed word that the window loop's
// packed lookup could not take: a rune chunk, a word that crossed a block
// or window boundary, one the byte loop cut.
func (a *StreamAnalyzer) emit(word []byte) {
	switch {
	case a.onWord != nil:
		a.onWord(word)
	case a.tagger != nil && !a.tagger.KnownWord(word):
		a.unknown++
	}
}

// addWords counts n completed word tokens; the four counters move
// together for a word.
func (a *StreamAnalyzer) addWords(n int) {
	a.st.Tokens += n
	a.st.Words += n
	a.tokensInSent += n
	a.sentWords += n
}

// Finish closes any in-flight token and the trailing sentence fragment,
// then returns the final statistics and newline count. The analyzer must
// be Reset before reuse.
func (a *StreamAnalyzer) Finish() (TextStats, int64) {
	if a.inChunk {
		a.finishChunk()
	}
	if a.inWord {
		a.endWord(nil)
	}
	if a.tokensInSent > 0 {
		a.closeSentence()
	}
	if a.st.Sentences > 0 {
		a.st.MeanSentence = float64(a.st.Words) / float64(a.st.Sentences)
	}
	return a.st, a.lines
}

// carryWord keeps an open word's bytes at the block's edge. The lexicon
// needs no more than one byte past its longest key — a longer word is
// unknown whatever follows — so only the test callback's carry grows.
func (a *StreamAnalyzer) carryWord(tail []byte) {
	if a.onWord == nil {
		if a.tagger == nil {
			return
		}
		if a.wordBuf == nil {
			a.wordBuf = a.carry[:0]
		}
		tail = tail[:min(len(tail), len(a.carry)-len(a.wordBuf))]
	}
	a.wordBuf = append(a.wordBuf, tail...)
}

// endWord completes the byte loop's open word token; tail holds the
// word's bytes from the current block, after whatever wordBuf carried.
func (a *StreamAnalyzer) endWord(tail []byte) {
	a.addWords(1)
	a.inWord = false
	word := tail
	if len(a.wordBuf) > 0 {
		a.carryWord(tail)
		word = a.wordBuf
	}
	a.emit(word)
	a.wordBuf = a.wordBuf[:0]
}

// finishChunk classifies the completed rune chunk exactly as Tokenize
// does: it is a word token iff its bytes decode to a single letter or
// digit rune spanning the whole chunk; a lone '.', '!' or '?' ends the
// sentence.
func (a *StreamAnalyzer) finishChunk() {
	a.st.Tokens++
	a.tokensInSent++
	word := false
	if a.chunkLen <= len(a.chunkBuf) {
		chunk := a.chunkBuf[:a.chunkLen]
		if r, size := utf8.DecodeRune(chunk); size == a.chunkLen &&
			(unicode.IsLetter(r) || unicode.IsDigit(r)) {
			word = true
		}
	}
	switch {
	case word:
		a.st.Words++
		a.sentWords++
		a.emit(a.chunkBuf[:a.chunkLen])
	case a.chunkLen == 1 && (a.chunkBuf[0] == '.' || a.chunkBuf[0] == '!' || a.chunkBuf[0] == '?'):
		a.closeSentence()
	}
	a.inChunk = false
	a.chunkLen = 0
}

func (a *StreamAnalyzer) closeSentence() {
	a.st.Sentences++
	if a.sentWords > a.st.MaxSentence {
		a.st.MaxSentence = a.sentWords
	}
	a.sentWords = 0
	a.tokensInSent = 0
}

// FileStats is one scanned file's text measurements. Unknown counts the
// file's out-of-vocabulary words; it stays zero unless the kernel carries
// a tagger.
type FileStats struct {
	Name    string
	Stats   TextStats
	Lines   int64
	Unknown int
}

// StatsKernel is the analyzer scan kernel, the one type that drives a
// StreamAnalyzer under the scan engine: token/sentence/line statistics
// per file and corpus-wide, and — when it carries a tagger — each file's
// out-of-vocabulary word count from the same pass, by the tagger's
// lexicon-membership test. TagText's Unknown/Words ratio is exactly
// lexicon membership counted over non-punctuation tokens, so no tagging is
// needed; callers derive the POS complexity from (Stats, Unknown) when
// they assemble results.
//
// Block-retention contract: the kernel never keeps a reference into the
// delivered block — the analyzer carries only its bounded in-flight token
// and the lexicon's key set is probed with values loaded from the block —
// so it is safe on the zero-copy scan path.
type StatsKernel struct {
	an   StreamAnalyzer
	name string

	files []FileStats
	total TextStats
	lines int64
}

// NewStatsKernel returns a statistics-only analyzer kernel prototype.
func NewStatsKernel() *StatsKernel { return NewAnalyzerKernel(nil) }

// NewAnalyzerKernel returns an analyzer kernel prototype that also counts
// out-of-vocabulary words against the tagger's lexicon; a nil tagger
// means statistics only.
func NewAnalyzerKernel(t *Tagger) *StatsKernel {
	return &StatsKernel{an: StreamAnalyzer{tagger: t}}
}

// Tagger returns the tagger whose lexicon the kernel counts against, or
// nil for a statistics-only kernel.
func (k *StatsKernel) Tagger() *Tagger { return k.an.tagger }

// Fork implements scan.Kernel: forks share the tagger (read-only lexicon)
// but nothing else.
func (k *StatsKernel) Fork() scan.Kernel { return NewAnalyzerKernel(k.an.tagger) }

// Begin implements scan.Kernel.
func (k *StatsKernel) Begin(src scan.Source) {
	k.an.Reset()
	k.name = src.Name
}

// Block implements scan.Kernel.
func (k *StatsKernel) Block(p []byte) { k.an.Block(p) }

// End implements scan.Kernel: the completed file is appended to the
// kernel's own accumulation and folded into its totals.
func (k *StatsKernel) End() {
	st, lines := k.an.Finish()
	k.files = append(k.files, FileStats{Name: k.name, Stats: st, Lines: lines, Unknown: k.an.unknown})
	k.fold(st, lines)
}

// fold adds one file's statistics — or another kernel's totals, the
// operations are the same — to the corpus totals.
func (k *StatsKernel) fold(st TextStats, lines int64) {
	k.total.Tokens += st.Tokens
	k.total.Words += st.Words
	k.total.Sentences += st.Sentences
	if st.MaxSentence > k.total.MaxSentence {
		k.total.MaxSentence = st.MaxSentence
	}
	k.lines += lines
}

// Merge implements scan.Kernel: the other kernel's accumulated files are
// appended in input order, its totals folded in, and its accumulation
// drained. The integer folds are associative, so folding a shard-sized
// accumulation is bit-identical to folding its files one at a time.
func (k *StatsKernel) Merge(other scan.Kernel) {
	o := other.(*StatsKernel)
	k.files = append(k.files, o.files...)
	k.fold(o.total, o.lines)
	o.files = o.files[:0]
	o.total = TextStats{}
	o.lines = 0
}

// Files returns per-file stats in input order; the slice is owned by the
// kernel.
func (k *StatsKernel) Files() []FileStats { return k.files }

// Total returns corpus-wide statistics: summed counts, max sentence, and
// the mean recomputed over all sentences.
func (k *StatsKernel) Total() TextStats {
	t := k.total
	if t.Sentences > 0 {
		t.MeanSentence = float64(t.Words) / float64(t.Sentences)
	}
	return t
}

// Lines returns the corpus-wide newline count.
func (k *StatsKernel) Lines() int64 { return k.lines }

const (
	analyzerKernelTag = 'A'
	// fileStatsMinBytes is the least one per-file record encodes to: the
	// name's length prefix, five stats, lines and unknown.
	fileStatsMinBytes = 64
)

func encodeTextStats(e *scan.StateEncoder, st TextStats) {
	e.Int(st.Tokens)
	e.Int(st.Words)
	e.Int(st.Sentences)
	e.F64(st.MeanSentence)
	e.Int(st.MaxSentence)
}

func decodeTextStats(d *scan.StateDecoder) TextStats {
	return TextStats{
		Tokens:       d.Int(),
		Words:        d.Int(),
		Sentences:    d.Int(),
		MeanSentence: d.F64(),
		MaxSentence:  d.Int(),
	}
}

// lexiconFlag is what the state records about the kernel's configuration:
// whether its Unknown counts were taken against a lexicon.
func (k *StatsKernel) lexiconFlag() int {
	if k.an.tagger != nil {
		return 1
	}
	return 0
}

// Snapshot implements scan.StateCodec: the accumulated per-file records,
// totals and line count. The lexicon itself is configuration, not state —
// both sides of a transfer must build their kernels from the same spec,
// and Restore rejects a payload whose lexicon flag disagrees.
func (k *StatsKernel) Snapshot() ([]byte, error) {
	// tag, lexicon flag, count, per file: name length + name, five stats,
	// lines, unknown; then the totals' five stats and lines.
	size := 1 + 8 + 8 + fileStatsMinBytes*len(k.files) + 48
	for i := range k.files {
		size += len(k.files[i].Name)
	}
	var e scan.StateEncoder
	e.Grow(size)
	e.Tag(analyzerKernelTag)
	e.Int(k.lexiconFlag())
	e.Int(len(k.files))
	for _, f := range k.files {
		e.Str(f.Name)
		encodeTextStats(&e, f.Stats)
		e.I64(f.Lines)
		e.Int(f.Unknown)
	}
	encodeTextStats(&e, k.total)
	e.I64(k.lines)
	return e.Bytes(), nil
}

// Restore implements scan.StateCodec.
func (k *StatsKernel) Restore(state []byte) error {
	d := scan.NewStateDecoder(state)
	d.Tag(analyzerKernelTag)
	lex := d.Int()
	if d.Err() == nil && lex != k.lexiconFlag() {
		return errs.Invalid("textproc: analyzer kernel state has lexicon flag %d, kernel has %d", lex, k.lexiconFlag())
	}
	n := d.Len(fileStatsMinBytes)
	files := make([]FileStats, 0, n)
	for i := 0; i < n; i++ {
		files = append(files, FileStats{Name: d.Str(), Stats: decodeTextStats(d), Lines: d.I64(), Unknown: d.Int()})
	}
	total := decodeTextStats(d)
	lines := d.I64()
	if err := d.Finish(); err != nil {
		return err
	}
	k.files, k.total, k.lines = files, total, lines
	return nil
}

// FilePatternCount is one scanned file's per-pattern match counts.
type FilePatternCount struct {
	Name    string
	Bytes   int64
	Counts  []int64 // per pattern, registration order
	Matches int64   // sum over Counts
}

// MatchKernel is the multi-pattern grep scan kernel: one MultiSearcher
// automaton pass per file, counts per pattern. The automaton state is the
// whole block-boundary carry. It is a scan.SumCarrier: in a run beside a
// scan.Checksum, the member checksum rides its byte loop.
type MatchKernel struct {
	ms *MultiSearcher
	st MatchState

	name   string
	bytes  int64
	counts []int64

	files  []FilePatternCount
	totals []int64
	// arena carves per-file Counts rows out of shared slabs: End runs
	// inside a single worker's private kernel state, and one allocation
	// per DefaultArenaSize counts replaces one exact-size copy per file.
	// Merge moves the rows without re-copying; slabs are never reused, so
	// rows stay valid after their arena's kernel is recycled.
	arena scan.Int64Arena
}

// NewMatchKernel returns a match kernel prototype over the searcher.
func NewMatchKernel(ms *MultiSearcher) *MatchKernel {
	return &MatchKernel{ms: ms, totals: make([]int64, ms.NumPatterns())}
}

// Searcher returns the underlying MultiSearcher.
func (k *MatchKernel) Searcher() *MultiSearcher { return k.ms }

// Fork implements scan.Kernel: forks share the automaton (read-only) but
// not counts.
func (k *MatchKernel) Fork() scan.Kernel {
	return &MatchKernel{ms: k.ms, totals: make([]int64, k.ms.NumPatterns())}
}

// Begin implements scan.Kernel.
func (k *MatchKernel) Begin(src scan.Source) {
	k.st = k.ms.Start()
	k.name = src.Name
	k.bytes = src.Size
	if k.counts == nil {
		k.counts = make([]int64, k.ms.NumPatterns())
	} else {
		for i := range k.counts {
			k.counts[i] = 0
		}
	}
}

// Block implements scan.Kernel.
func (k *MatchKernel) Block(p []byte) { k.st = k.ms.Feed(k.st, p, k.counts) }

// BlockSum implements scan.SumCarrier: Block, with the member checksum
// carried through the matcher's byte loop (MultiSearcher.FeedSum).
func (k *MatchKernel) BlockSum(h uint64, p []byte) uint64 {
	k.st, h = k.ms.FeedSum(k.st, h, p, k.counts)
	return h
}

// End implements scan.Kernel: the completed file's counts are copied into
// the kernel's own arena (the scratch slice is recycled across files) and
// folded into its totals.
func (k *MatchKernel) End() {
	fc := FilePatternCount{
		Name:   k.name,
		Bytes:  k.bytes,
		Counts: k.arena.Copy(k.counts),
	}
	for i, c := range k.counts {
		fc.Matches += c
		k.totals[i] += c
	}
	k.files = append(k.files, fc)
}

// Merge implements scan.Kernel: the other kernel's accumulated rows are
// moved (not re-copied — arena slabs are never reused, so the rows stay
// valid), its totals folded in, and its accumulation drained.
func (k *MatchKernel) Merge(other scan.Kernel) {
	o := other.(*MatchKernel)
	k.files = append(k.files, o.files...)
	for i, c := range o.totals {
		k.totals[i] += c
	}
	o.files = o.files[:0]
	for i := range o.totals {
		o.totals[i] = 0
	}
}

// Files returns per-file counts in input order; the slice is owned by the
// kernel.
func (k *MatchKernel) Files() []FilePatternCount { return k.files }

// Totals returns corpus-wide per-pattern counts in registration order.
func (k *MatchKernel) Totals() []int64 { return k.totals }

// TotalMatches returns the corpus-wide match count across all patterns.
func (k *MatchKernel) TotalMatches() int64 {
	var t int64
	for _, c := range k.totals {
		t += c
	}
	return t
}

const matchKernelTag = 'M'

// Snapshot implements scan.StateCodec: the accumulated per-file rows and
// totals. The pattern set itself is configuration, not state — both sides
// of a transfer must build their kernels over the same patterns, and
// Restore rejects a payload whose pattern count disagrees.
func (k *MatchKernel) Snapshot() ([]byte, error) {
	np := k.ms.NumPatterns()
	// tag, pattern count, file count, per file: name length + name,
	// bytes, one count per pattern; then the per-pattern totals.
	size := 1 + 8 + 8 + (16+8*np)*len(k.files) + 8*np
	for i := range k.files {
		size += len(k.files[i].Name)
	}
	var e scan.StateEncoder
	e.Grow(size)
	e.Tag(matchKernelTag)
	e.Int(np)
	e.Int(len(k.files))
	for _, f := range k.files {
		e.Str(f.Name)
		e.I64(f.Bytes)
		for _, c := range f.Counts {
			e.I64(c)
		}
		// Counts is nil for a zero-pattern searcher row; Matches is
		// derivable, so neither needs encoding beyond the counts above.
	}
	for _, c := range k.totals {
		e.I64(c)
	}
	return e.Bytes(), nil
}

// Restore implements scan.StateCodec.
func (k *MatchKernel) Restore(state []byte) error {
	d := scan.NewStateDecoder(state)
	d.Tag(matchKernelTag)
	np := d.Int()
	if d.Err() == nil && np != k.ms.NumPatterns() {
		return errs.Invalid("textproc: match kernel state has %d patterns, searcher has %d", np, k.ms.NumPatterns())
	}
	n := d.Len(16 + 8*np) // name length, bytes, one count per pattern
	files := make([]FilePatternCount, 0, n)
	var arena scan.Int64Arena
	row := make([]int64, np)
	for i := 0; i < n; i++ {
		fc := FilePatternCount{Name: d.Str(), Bytes: d.I64()}
		for j := 0; j < np; j++ {
			row[j] = d.I64()
			fc.Matches += row[j]
		}
		fc.Counts = arena.Copy(row)
		files = append(files, fc)
	}
	totals := make([]int64, np)
	for i := range totals {
		totals[i] = d.I64()
	}
	if err := d.Finish(); err != nil {
		return err
	}
	k.files, k.totals = files, totals
	return nil
}
