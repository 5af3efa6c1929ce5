package corpus

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestHTML18MilDistributionShape(t *testing.T) {
	spec := HTML18Mil(0.001) // 18,000 files
	fs, err := Generate(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 18000 {
		t.Fatalf("files = %d, want 18000", fs.Len())
	}
	h, err := SizeHistogram(fs, 10*KB, 300*KB)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: majority of files under 50 kB, long tail, max 43 MB.
	if frac := h.FractionBelow(50 * KB); frac < 0.5 {
		t.Errorf("fraction below 50 kB = %v, want > 0.5", frac)
	}
	if h.Overflow() == 0 {
		t.Error("expected a long tail beyond 300 kB")
	}
	var maxSize int64
	for _, s := range fs.Sizes() {
		if s > maxSize {
			maxSize = s
		}
		if s > 43*MB {
			t.Fatalf("size %d exceeds 43 MB cap", s)
		}
	}
	// Mean file size should be within 2x of the 50 kB implied by
	// 900 GB / 18M files.
	mean := float64(fs.TotalSize()) / float64(fs.Len())
	if mean < 25_000 || mean > 100_000 {
		t.Errorf("mean size = %.0f, want ≈50000", mean)
	}
}

func TestText400KDistributionShape(t *testing.T) {
	spec := Text400K(0.05) // 20,000 files
	fs, err := Generate(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, err := SizeHistogram(fs, KB, 160*KB)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: over 40% under 1 kB, majority under 5 kB, max 705 kB.
	if frac := h.FractionBelow(KB); frac < 0.35 {
		t.Errorf("fraction below 1 kB = %v, want ≥ 0.35", frac)
	}
	if frac := h.FractionBelow(5 * KB); frac < 0.5 {
		t.Errorf("fraction below 5 kB = %v, want > 0.5", frac)
	}
	for _, s := range fs.Sizes() {
		if s > 705*KB {
			t.Fatalf("size %d exceeds 705 kB cap", s)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Text400K(0.001)
	a, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Sizes(), b.Sizes()
	if len(sa) != len(sb) {
		t.Fatal("different file counts")
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("size %d differs: %d vs %d", i, sa[i], sb[i])
		}
	}
	c, err := Generate(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, s := range c.Sizes() {
		if s != sa[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

func TestGenerateWithContentMatchesDeclaredSizes(t *testing.T) {
	spec := Text400K(0.0001) // 40 files
	fs, err := GenerateWithContent(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs.List() {
		data, err := f.ReadAll() // ReadAll validates size
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s: empty content", f.Name)
		}
	}
}

func TestGenerateWithContentDeterministicAcrossOpens(t *testing.T) {
	spec := Text400K(0.0001)
	fs, err := GenerateWithContent(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	f := fs.List()[0]
	a, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two opens of the same file differ")
	}
}

func TestHTMLWrapping(t *testing.T) {
	spec := HTML18Mil(0.000001) // 18 files
	spec.NumFiles = 5
	fs, err := GenerateWithContent(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs.List() {
		data, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		s := string(data)
		if !strings.HasPrefix(s, "<html>") || !strings.HasSuffix(s, "</html>") {
			t.Errorf("%s not HTML-wrapped: %.40q...", f.Name, s)
		}
	}
}

func TestTextExactSize(t *testing.T) {
	g := NewGenerator(NewsStyle(), 3)
	for _, n := range []int{0, 1, 10, 100, 5000} {
		if got := len(g.Text(n)); got != n {
			t.Errorf("Text(%d) length = %d", n, got)
		}
	}
}

func TestHTMLExactSize(t *testing.T) {
	g := NewGenerator(NewsStyle(), 3)
	for _, n := range []int{10, 80, 1000} {
		if got := len(g.HTML(n)); got != n {
			t.Errorf("HTML(%d) length = %d", n, got)
		}
	}
}

func TestSentenceLengthTracksStyle(t *testing.T) {
	mean := func(style Style) float64 {
		g := NewGenerator(style, 9)
		total := 0
		const n = 300
		for i := 0; i < n; i++ {
			words := 0
			for _, w := range g.Sentence() {
				if w != "," && w != "." {
					words++
				}
			}
			total += words
		}
		return float64(total) / n
	}
	plain := mean(PlainStyle())
	complex := mean(ComplexStyle())
	if complex < 1.5*plain {
		t.Errorf("complex sentences (%.1f words) not much longer than plain (%.1f)", complex, plain)
	}
}

func TestGenerateBookWordBudget(t *testing.T) {
	for _, spec := range []BookSpec{Dubliners(), AgnesGrey()} {
		spec := spec
		spec.Words = 2000 // keep the test fast; same code path
		text := GenerateBook(spec, 11)
		if got := CountWords(text); got != spec.Words {
			t.Errorf("%s: words = %d, want %d", spec.Title, got, spec.Words)
		}
	}
}

func TestBookPresetsMatchPaper(t *testing.T) {
	if d := Dubliners(); d.Words != 67496 || d.Style.Name != "complex" {
		t.Errorf("Dubliners preset = %+v", d)
	}
	if a := AgnesGrey(); a.Words != 67755 || a.Style.Name != "plain" {
		t.Errorf("AgnesGrey preset = %+v", a)
	}
	// The paper's point: word counts within 300 of each other.
	if diff := AgnesGrey().Words - Dubliners().Words; diff < 0 || diff > 300 {
		t.Errorf("word count difference = %d, want within 300", diff)
	}
}

func TestCountWords(t *testing.T) {
	cases := []struct {
		text string
		want int
	}{
		{"", 0},
		{"one", 1},
		{"one two", 2},
		{"one, two.", 2},
		{"  spaced   out  ", 2},
		{"line\nbreak\ttab", 3},
	}
	for _, c := range cases {
		if got := CountWords([]byte(c.text)); got != c.want {
			t.Errorf("CountWords(%q) = %d, want %d", c.text, got, c.want)
		}
	}
}

func TestSizeDistStats(t *testing.T) {
	d := SizeDist{Mu: 7, Sigma: 1, Min: 1, Max: 1 << 40}
	// The unbounded log-normal's median is exp(Mu), its mean exp(Mu + Sigma²/2).
	median, mean := math.Exp(d.Mu), math.Exp(d.Mu+d.Sigma*d.Sigma/2)
	if median <= 0 || mean <= median {
		t.Errorf("lognormal mean %v must exceed median %v", mean, median)
	}
	r := stats.NewRand(5, "sizedist")
	for i := 0; i < 1000; i++ {
		s := d.Sample(r)
		if s < d.Min || s > d.Max {
			t.Fatalf("sample %d out of bounds", s)
		}
	}
}

// Property: Text always returns exactly the requested size for any
// non-negative n, in any style.
func TestTextSizeProperty(t *testing.T) {
	styles := []Style{PlainStyle(), ComplexStyle(), NewsStyle()}
	f := func(nRaw uint16, styleIdx uint8, seed int64) bool {
		n := int(nRaw % 4096)
		g := NewGenerator(styles[int(styleIdx)%len(styles)], seed)
		return len(g.Text(n)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStyleStringAndSpecNames(t *testing.T) {
	if s := NewsStyle().String(); !strings.Contains(s, "news") {
		t.Errorf("style string = %q", s)
	}
	if spec := HTML18Mil(1); spec.NumFiles != 18_000_000 {
		t.Errorf("full-scale HTML spec files = %d", spec.NumFiles)
	}
	if spec := Text400K(1); spec.NumFiles != 400_000 {
		t.Errorf("full-scale text spec files = %d", spec.NumFiles)
	}
	if spec := HTML18Mil(0); spec.NumFiles < 1 {
		t.Error("zero scale must still produce at least one file")
	}
}
