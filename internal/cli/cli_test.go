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
