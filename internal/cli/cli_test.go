package cli

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// TestPositive pins the multiplier check: positive finite values pass,
// everything else is a usage error that names the flag.
func TestPositive(t *testing.T) {
	for _, in := range []float64{1e-300, 0.002, 1, 1e300} {
		if err := Positive("scale", in); err != nil {
			t.Errorf("Positive(%v) = %v, want nil", in, err)
		}
	}
	for _, in := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		err := Positive("scale", in)
		var ue usageError
		if !errors.As(err, &ue) || !strings.Contains(err.Error(), "-scale") {
			t.Errorf("Positive(%v): %v, want a usage error naming -scale", in, err)
		}
	}
}

// TestSeconds pins the one seconds → Duration reader: finite values from 0
// up to what a Duration holds convert, everything else is a usage error
// that names the flag.
func TestSeconds(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want time.Duration
	}{
		{0, 0},
		{1.5, 1500 * time.Millisecond},
		{10, 10 * time.Second},
		{9e9, 9e9 * time.Second},
	} {
		got, err := Seconds("drain", tc.in)
		if err != nil || got != tc.want {
			t.Errorf("Seconds(%v) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	maxSeconds := float64(math.MaxInt64) / float64(time.Second)
	for _, in := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-9, maxSeconds, 1e300} {
		_, err := Seconds("drain", in)
		var ue usageError
		if !errors.As(err, &ue) || !strings.Contains(err.Error(), "-drain") {
			t.Errorf("Seconds(%v): %v, want a usage error naming -drain", in, err)
		}
	}
}

// TestPositiveSeconds: a deadline converts as Seconds does, and 0 — which
// Seconds takes for "no wait" — is a usage error naming the flag too.
func TestPositiveSeconds(t *testing.T) {
	if got, err := PositiveSeconds("deadline", 120); err != nil || got != 2*time.Minute {
		t.Errorf("PositiveSeconds(120) = %v, %v; want 2m0s", got, err)
	}
	for _, in := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), 1e300} {
		_, err := PositiveSeconds("deadline", in)
		var ue usageError
		if !errors.As(err, &ue) || !strings.Contains(err.Error(), "-deadline") {
			t.Errorf("PositiveSeconds(%v): %v, want a usage error naming -deadline", in, err)
		}
	}
}

// TestCount pins the integer reader: 0 gives the default, a positive value
// passes, a negative one is a usage error naming the flag.
func TestCount(t *testing.T) {
	for _, tc := range []struct{ in, def, want int }{{0, 4, 4}, {0, 0, 0}, {1, 4, 1}, {64, 0, 64}} {
		if got, err := Count("inflight", tc.in, tc.def); err != nil || got != tc.want {
			t.Errorf("Count(%d, default %d) = %d, %v; want %d", tc.in, tc.def, got, err, tc.want)
		}
	}
	for _, in := range []int64{-1, math.MinInt64} {
		_, err := Count("shard", in, 256<<20)
		var ue usageError
		if !errors.As(err, &ue) || !strings.Contains(err.Error(), "-shard") {
			t.Errorf("Count(%d): %v, want a usage error naming -shard", in, err)
		}
	}
}
