package workload

import (
	"context"
	"runtime"
	"testing"
)

// TestEstimateChunkedSumMatchesSerial pins Estimate's determinism across
// the serial and fanned-out item-sum paths: two identically-seeded
// instances reading an EBS volume (the Fig. 5 storage), one estimated
// under GOMAXPROCS=1 (forcing the serial chunk) and one at full width,
// must produce the exact same Duration — including the RNG draw order
// around the sum (setup noise, work noise).
func TestEstimateChunkedSumMatchesSerial(t *testing.T) {
	items := make([]Item, 5000) // above parThreshold
	for i := range items {
		items[i] = NewItem(int64(500 + i%9000))
	}
	c1, in1 := goodInstance(t, 77)
	c2, in2 := goodInstance(t, 77)
	vol1, err := c1.CreateVolume("us-east-1a", 100)
	if err != nil {
		t.Fatal(err)
	}
	vol2, err := c2.CreateVolume("us-east-1a", 100)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	serial, err := EstimateCtx(context.Background(), in1, NewPOS(), items, vol1, "d")
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := EstimateCtx(context.Background(), in2, NewPOS(), items, vol2, "d")
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Errorf("parallel estimate %v != serial %v", parallel, serial)
	}
}

func TestEstimateNegativeSizeInChunkedPath(t *testing.T) {
	items := make([]Item, 5000)
	for i := range items {
		items[i] = NewItem(100)
	}
	items[4321].Size = -1
	_, in := goodInstance(t, 78)
	if _, err := EstimateCtx(context.Background(), in, NewGrep(), items, nil, "d"); err == nil {
		t.Error("expected negative-size error from chunked path")
	}
}
