package cloudsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/stats"
)

// S3 models the Simple Storage Service (§1.1): unlimited objects of up to
// 5 GB, accessible from many instances in parallel, with latency that is
// "higher and more variable" than EBS. Objects are tracked as sizes; the
// store is used for staging-time accounting, not byte storage.
type S3 struct {
	cloud   *Cloud
	objects map[string]int64
	noise   *rand.Rand
}

// MaxObjectBytes is the 5 GB object-size cap the paper quotes.
const MaxObjectBytes = 5_000_000_000

// Baseline S3 transfer characteristics relative to EBS: lower sustained
// bandwidth and a per-request latency with high variance.
const (
	s3BaseMBps        = 40.0
	s3BaseLatency     = 80 * time.Millisecond
	s3LatencyJitterSD = 0.5 // relative stddev, "more variable" than EBS
)

func newS3(c *Cloud) *S3 {
	return &S3{
		cloud:   c,
		objects: make(map[string]int64),
		noise:   stats.NewRand(c.seed, "s3-noise"),
	}
}

// Put stores an object of the given size.
func (s *S3) Put(key string, size int64) error {
	if key == "" {
		return fmt.Errorf("cloudsim: empty S3 key")
	}
	if size < 0 {
		return fmt.Errorf("cloudsim: negative object size %d", size)
	}
	if size > MaxObjectBytes {
		return fmt.Errorf("cloudsim: object %q size %d exceeds the 5 GB cap", key, size)
	}
	s.objects[key] = size
	return nil
}

// Size returns an object's size.
func (s *S3) Size(key string) (int64, error) {
	size, ok := s.objects[key]
	if !ok {
		return 0, fmt.Errorf("cloudsim: S3 object %q not found", key)
	}
	return size, nil
}

// FetchTime estimates the virtual time for an instance to download an
// object: jittered request latency plus size over jittered bandwidth.
// The jitter stream is deterministic per cloud seed but varies call to
// call, modelling S3's variable quality of service.
func (s *S3) FetchTime(key string) (time.Duration, error) {
	size, err := s.Size(key)
	if err != nil {
		return 0, err
	}
	latJitter := 1 + s.noise.NormFloat64()*s3LatencyJitterSD
	if latJitter < 0.2 {
		latJitter = 0.2
	}
	bwJitter := 1 + s.noise.NormFloat64()*0.25
	if bwJitter < 0.3 {
		bwJitter = 0.3
	}
	lat := time.Duration(float64(s3BaseLatency) * latJitter)
	return lat + EstimateTransfer(size, s3BaseMBps*bwJitter), nil
}
