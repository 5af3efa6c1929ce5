package corpus

import (
	"sort"
	"strings"
	"testing"
)

// wordFreq tallies lowercase word frequencies of generated text.
func wordFreq(text []byte) map[string]int {
	freq := make(map[string]int)
	for _, w := range strings.Fields(string(text)) {
		w = strings.Trim(strings.ToLower(w), ".,")
		if w != "" {
			freq[w]++
		}
	}
	return freq
}

func TestGeneratedTextIsZipfLike(t *testing.T) {
	g := NewGenerator(NewsStyle(), 13)
	freq := wordFreq(g.Text(300_000))
	if len(freq) < 100 {
		t.Fatalf("vocabulary too small: %d", len(freq))
	}
	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	// Zipf-ish head: the most frequent word appears far more often than
	// the 50th, and the top 20 words cover a large share of tokens.
	if counts[0] < 5*counts[49] {
		t.Errorf("head not heavy: top %d vs 50th %d", counts[0], counts[49])
	}
	var total, top20 int
	for i, c := range counts {
		total += c
		if i < 20 {
			top20 += c
		}
	}
	share := float64(top20) / float64(total)
	if share < 0.3 {
		t.Errorf("top-20 share = %v, want Zipf-like concentration", share)
	}
}

func TestStyleZipfParameterControlsRepetition(t *testing.T) {
	vocab := func(zipfS float64) int {
		style := NewsStyle()
		style.ZipfS = zipfS
		g := NewGenerator(style, 14)
		return len(wordFreq(g.Text(100_000)))
	}
	repetitive := vocab(2.2)
	diverse := vocab(1.05)
	if repetitive >= diverse {
		t.Errorf("higher Zipf exponent should shrink vocabulary: %d vs %d", repetitive, diverse)
	}
}

func TestGeneratedSentencesEndWithPeriods(t *testing.T) {
	g := NewGenerator(PlainStyle(), 15)
	text := string(g.Text(5000))
	if !strings.Contains(text, ".") {
		t.Fatal("no sentence terminators")
	}
	// No double spaces, no space before punctuation.
	if strings.Contains(text, "  ") {
		t.Error("double spaces in generated text")
	}
	if strings.Contains(text, " .") || strings.Contains(text, " ,") {
		t.Error("space before punctuation")
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a := NewGenerator(NewsStyle(), 7).Text(10_000)
	b := NewGenerator(NewsStyle(), 7).Text(10_000)
	if string(a) != string(b) {
		t.Error("same seed produced different text")
	}
	c := NewGenerator(NewsStyle(), 8).Text(10_000)
	if string(a) == string(c) {
		t.Error("different seeds produced identical text")
	}
}

func BenchmarkTextGeneration100kB(b *testing.B) {
	b.SetBytes(100_000)
	for i := 0; i < b.N; i++ {
		g := NewGenerator(NewsStyle(), int64(i))
		g.Text(100_000)
	}
}
