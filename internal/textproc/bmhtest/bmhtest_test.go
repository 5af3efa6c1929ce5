package bmhtest

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSearcherErrors(t *testing.T) {
	if _, err := New(""); err == nil {
		t.Error("expected error for empty pattern")
	}
	if _, err := NewFolded(""); err == nil {
		t.Error("expected error for empty folded pattern")
	}
}

func TestCountBytesLiteral(t *testing.T) {
	s, err := New("ab")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		text string
		want int64
	}{
		{"", 0},
		{"a", 0},
		{"ab", 1},
		{"abab", 2},
		{"aab", 1},
		{"xyz", 0},
		{"ababab", 3},
	}
	for _, c := range cases {
		if got := s.CountBytes([]byte(c.text)); got != c.want {
			t.Errorf("count(%q) = %d, want %d", c.text, got, c.want)
		}
	}
}

func TestCountBytesOverlapping(t *testing.T) {
	s, _ := New("aa")
	if got := s.CountBytes([]byte("aaaa")); got != 3 {
		t.Errorf("overlapping count = %d, want 3", got)
	}
}

func TestCountBytesSingleByte(t *testing.T) {
	s, _ := New("x")
	if got := s.CountBytes([]byte("xxhxx")); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
}

func TestFoldedSearch(t *testing.T) {
	s, err := NewFolded("CaT")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CountBytes([]byte("cat CAT cAt dog")); got != 3 {
		t.Errorf("folded count = %d, want 3", got)
	}
}

// Property: BMH count equals a naive reference count for random inputs.
func TestBMHMatchesNaiveProperty(t *testing.T) {
	naive := func(hay, pat []byte) int64 {
		var c int64
		for i := 0; i+len(pat) <= len(hay); i++ {
			if bytes.Equal(hay[i:i+len(pat)], pat) {
				c++
			}
		}
		return c
	}
	f := func(hayRaw []byte, patRaw []byte) bool {
		// Map to a small alphabet so matches actually occur.
		small := func(b []byte) []byte {
			out := make([]byte, len(b))
			for i, c := range b {
				out[i] = 'a' + c%3
			}
			return out
		}
		hay := small(hayRaw)
		pat := small(patRaw)
		if len(pat) == 0 || len(pat) > 8 {
			return true
		}
		s, err := New(string(pat))
		if err != nil {
			return false
		}
		return s.CountBytes(hay) == naive(hay, pat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
