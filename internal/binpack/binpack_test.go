package binpack

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mkItems(sizes ...int64) []Item {
	items := make([]Item, len(sizes))
	for i, s := range sizes {
		items[i] = Item{ID: fmt.Sprintf("f%03d", i), Size: s}
	}
	return items
}

func TestFirstFitBasic(t *testing.T) {
	items := mkItems(4, 8, 1, 4, 2, 1)
	bins, err := FirstFit(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(items, bins); err != nil {
		t.Fatal(err)
	}
	// FF trace at cap 10: [4,1,4,1]=10, [8,2]=10.
	if len(bins) != 2 {
		t.Fatalf("bins = %d, want 2", len(bins))
	}
	if bins[0].Used != 10 || bins[1].Used != 10 {
		t.Errorf("bin loads %d,%d want 10,10", bins[0].Used, bins[1].Used)
	}
}

func TestFirstFitPreservesOrderWithinBin(t *testing.T) {
	items := mkItems(3, 3, 3)
	bins, err := FirstFit(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 1 {
		t.Fatalf("bins = %d, want 1", len(bins))
	}
	for i, it := range bins[0].Items {
		if it.ID != fmt.Sprintf("f%03d", i) {
			t.Errorf("order broken at %d: %s", i, it.ID)
		}
	}
}

func TestFirstFitOversized(t *testing.T) {
	items := mkItems(5, 20, 5)
	bins, err := FirstFit(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(items, bins); err != nil {
		t.Fatal(err)
	}
	var oversized int
	for _, b := range bins {
		if b.Oversized {
			oversized++
			if len(b.Items) != 1 || b.Items[0].Size != 20 {
				t.Errorf("oversized bin should hold only the big item: %+v", b)
			}
		}
	}
	if oversized != 1 {
		t.Errorf("oversized bins = %d, want 1", oversized)
	}
}

func TestFirstFitErrors(t *testing.T) {
	if _, err := FirstFit(mkItems(1), 0); err == nil {
		t.Error("expected error for zero capacity")
	}
	if _, err := FirstFit([]Item{{ID: "x", Size: -1}}, 10); err == nil {
		t.Error("expected error for negative size")
	}
}

func TestFirstFitEmpty(t *testing.T) {
	bins, err := FirstFit(nil, 10)
	if err != nil || len(bins) != 0 {
		t.Fatalf("empty pack: %v, %v", bins, err)
	}
}

func TestFirstFitDecreasingTighter(t *testing.T) {
	// A pathological order where plain FF wastes space but FFD packs tightly.
	items := mkItems(1, 9, 1, 9, 1, 9, 1, 9)
	ff, err := FirstFit(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	ffd, err := FirstFitDecreasing(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(items, ffd); err != nil {
		t.Fatal(err)
	}
	if len(ffd) > len(ff) {
		t.Errorf("FFD used %d bins, FF used %d", len(ffd), len(ff))
	}
	if len(ffd) != 4 {
		t.Errorf("FFD bins = %d, want 4", len(ffd))
	}
}

func TestSubsetSumFirstFitFillsBinsFull(t *testing.T) {
	// Sizes that allow exact fills at capacity 100.
	items := mkItems(60, 40, 70, 30, 50, 50, 90, 10)
	bins, err := SubsetSumFirstFit(items, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(items, bins); err != nil {
		t.Fatal(err)
	}
	if len(bins) != 4 {
		t.Fatalf("bins = %d, want 4", len(bins))
	}
	for i, b := range bins {
		if b.Used != 100 {
			t.Errorf("bin %d used %d, want 100", i, b.Used)
		}
	}
}

func TestSubsetSumFirstFitHalfFullGuarantee(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var items []Item
	for i := 0; i < 500; i++ {
		items = append(items, Item{ID: fmt.Sprintf("r%d", i), Size: int64(r.Intn(50) + 1)})
	}
	bins, err := SubsetSumFirstFit(items, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(items, bins); err != nil {
		t.Fatal(err)
	}
	// All bins except possibly the last must be at least half full: a less
	// than half-full bin plus any unpacked item would have fit together.
	for i, b := range bins[:len(bins)-1] {
		if b.FillFraction() < 0.5 {
			t.Errorf("bin %d only %.2f full", i, b.FillFraction())
		}
	}
}

func TestSubsetSumFirstFitOversized(t *testing.T) {
	items := mkItems(150, 40, 60)
	bins, err := SubsetSumFirstFit(items, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(items, bins); err != nil {
		t.Fatal(err)
	}
	oversized := 0
	for _, b := range bins {
		if b.Oversized {
			oversized++
		}
	}
	if oversized != 1 {
		t.Errorf("oversized = %d, want 1", oversized)
	}
}

func TestLeastLoadedBalances(t *testing.T) {
	items := mkItems(10, 10, 10, 10, 10, 10)
	bins, err := LeastLoaded(items, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(items, bins); err != nil {
		t.Fatal(err)
	}
	for i, b := range bins {
		if b.Used != 20 {
			t.Errorf("bin %d used %d, want 20", i, b.Used)
		}
	}
}

func TestLeastLoadedDecreasingBeatsOriginalOrder(t *testing.T) {
	// Adversarial order: big items last cause imbalance in original order.
	items := mkItems(1, 1, 1, 1, 30, 30)
	plain, err := LeastLoaded(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	lpt, err := LeastLoadedDecreasing(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(bins []*Bin) int64 {
		s := Summarize(bins)
		return s.MaxUsed - s.MinUsed
	}
	if spread(lpt) > spread(plain) {
		t.Errorf("LPT spread %d worse than plain %d", spread(lpt), spread(plain))
	}
	if spread(lpt) != 0 {
		t.Errorf("LPT spread = %d, want 0", spread(lpt))
	}
}

func TestLeastLoadedErrors(t *testing.T) {
	if _, err := LeastLoaded(mkItems(1), 0); err == nil {
		t.Error("expected error for zero bins")
	}
	if _, err := LeastLoaded([]Item{{ID: "x", Size: -2}}, 2); err == nil {
		t.Error("expected error for negative size")
	}
}

func TestLeastLoadedEmptyItems(t *testing.T) {
	bins, err := LeastLoaded(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3", len(bins))
	}
	for _, b := range bins {
		if b.Used != 0 {
			t.Error("empty distribution has load")
		}
	}
}

func TestMergeGroups(t *testing.T) {
	items := mkItems(10, 10, 10, 10, 10)
	bins, err := FirstFit(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 5 {
		t.Fatalf("bins = %d, want 5", len(bins))
	}
	merged, err := MergeGroups(bins, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(items, merged); err != nil {
		t.Fatal(err)
	}
	if len(merged) != 3 {
		t.Fatalf("merged bins = %d, want 3", len(merged))
	}
	if merged[0].Capacity != 20 || merged[0].Used != 20 {
		t.Errorf("merged[0] = %+v", merged[0])
	}
	// Trailing partial group keeps nominal k*cap capacity.
	if merged[2].Capacity != 20 || merged[2].Used != 10 {
		t.Errorf("merged[2] = %+v", merged[2])
	}
}

func TestMergeGroupsK1CopiesDeeply(t *testing.T) {
	items := mkItems(5, 5)
	bins, _ := FirstFit(items, 10)
	out, err := MergeGroups(bins, 1)
	if err != nil {
		t.Fatal(err)
	}
	out[0].Items[0].ID = "mutated"
	out[0].Pos[0] = 7
	if bins[0].Items[0].ID == "mutated" || bins[0].Pos[0] == 7 {
		t.Error("MergeGroups(k=1) aliases input items")
	}
}

func TestMergeGroupsErrors(t *testing.T) {
	if _, err := MergeGroups(nil, 0); err == nil {
		t.Error("expected error for k=0")
	}
}

func TestSummarize(t *testing.T) {
	items := mkItems(10, 5, 20)
	bins, _ := FirstFit(items, 10) // [10] [5] oversized[20]
	s := Summarize(bins)
	if s.Bins != 3 || s.Oversized != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.TotalVolume != 35 || s.MinUsed != 5 || s.MaxUsed != 20 {
		t.Errorf("stats volumes wrong: %+v", s)
	}
	if s.MeanFill != 0.75 { // (1.0 + 0.5) / 2 over the two regular bins
		t.Errorf("mean fill = %v, want 0.75", s.MeanFill)
	}
	empty := Summarize(nil)
	if empty.Bins != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	items := mkItems(5, 5)
	// bin builds a hand-made bin over input positions; Used is the sum of
	// the items' sizes unless a test overrides it.
	bin := func(capacity int64, pos ...int32) *Bin {
		b := &Bin{Capacity: capacity, Pos: pos}
		for _, p := range pos {
			b.Items = append(b.Items, items[p])
			b.Used += items[p].Size
		}
		return b
	}
	if err := Verify(items, []*Bin{bin(10, 0, 1)}); err != nil {
		t.Fatalf("valid packing rejected: %v", err)
	}
	cases := map[string][]*Bin{
		"lost item": {bin(10, 0)},
		"wrong used": {func() *Bin {
			b := bin(10, 0, 1)
			b.Used = 99
			return b
		}()},
		"unknown item":      {bin(10, 0, 1), {Capacity: 10, Items: []Item{{Size: 1}}, Pos: []int32{2}, Used: 1}},
		"negative position": {{Capacity: 10, Items: []Item{{Size: 5}}, Pos: []int32{-1}, Used: 5}, bin(10, 1)},
		"packed twice":      {bin(10, 0, 1), bin(10, 1)},
		"size change": {func() *Bin {
			b := bin(20, 0, 1)
			b.Items = []Item{items[0], {ID: items[1].ID, Size: 6}}
			b.Used = 11
			return b
		}()},
		"positions shorter than items": {func() *Bin {
			b := bin(10, 0, 1)
			b.Pos = b.Pos[:1]
			return b
		}()},
		"positions longer than items": {func() *Bin {
			b := bin(10, 0, 1)
			b.Items = b.Items[:1]
			b.Used = 5
			return b
		}()},
		"overfull": {bin(9, 0, 1)},
	}
	for name, bins := range cases {
		t.Run(name, func(t *testing.T) {
			if err := Verify(items, bins); err == nil {
				t.Error("Verify accepted a broken packing")
			}
		})
	}
	t.Run("oversized bin may exceed capacity", func(t *testing.T) {
		b := bin(4, 0)
		b.Oversized = true
		if err := Verify(items, []*Bin{b, bin(10, 1)}); err != nil {
			t.Error(err)
		}
	})
}

// Verify's bookkeeping is one flag per input item: no map, no per-item
// allocation, whatever the packing's size.
func TestVerifyAllocatesOnce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	items := make([]Item, 10_000)
	for i := range items {
		items[i] = Item{Size: r.Int63n(50_000) + 1}
	}
	bins, err := SubsetSumFirstFit(items, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := Verify(items, bins); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("Verify over %d items allocates %v times per run, want 1", len(items), allocs)
	}
}

// exportedPackers is every exported packer, the bin-count ones at a bin
// count derived from the capacity argument.
var exportedPackers = map[string]func([]Item, int64) ([]*Bin, error){
	"first-fit":            FirstFit,
	"first-fit-decreasing": FirstFitDecreasing,
	"subset-sum":           SubsetSumFirstFit,
	"next-fit":             NextFit,
	"best-fit":             BestFit,
	"best-fit-decreasing":  BestFitDecreasing,
	"least-loaded": func(items []Item, c int64) ([]*Bin, error) {
		return LeastLoaded(items, int(c%13)+1)
	},
	"least-loaded-decreasing": func(items []Item, c int64) ([]*Bin, error) {
		return LeastLoadedDecreasing(items, int(c%13)+1)
	},
}

// Property: for every packer, packing conserves items, records each one's
// input position and respects capacities on arbitrary inputs.
func TestPackingInvariantsProperty(t *testing.T) {
	for name, pack := range exportedPackers {
		t.Run(name, func(t *testing.T) {
			f := func(rawSizes []uint16, rawCap uint16) bool {
				capacity := int64(rawCap%1000) + 1
				items := make([]Item, len(rawSizes))
				for i, s := range rawSizes {
					items[i] = Item{Size: int64(s % 2000)}
				}
				bins, err := pack(items, capacity)
				if err != nil {
					return false
				}
				return Verify(items, bins) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Every packer reports a negative size by the item's input position.
func TestPackersNameNegativeSizePosition(t *testing.T) {
	items := mkItems(3, 9, -4, 1)
	for name, pack := range exportedPackers {
		_, err := pack(items, 10)
		if err == nil || !strings.Contains(err.Error(), "position 2 ") {
			t.Errorf("%s: error %v does not name position 2", name, err)
		}
	}
}

// Property: merging preserves items for any k.
func TestMergeInvariantProperty(t *testing.T) {
	f := func(rawSizes []uint8, kRaw uint8) bool {
		k := int(kRaw%7) + 1
		items := make([]Item, len(rawSizes))
		for i, s := range rawSizes {
			items[i] = Item{Size: int64(s)}
		}
		bins, err := SubsetSumFirstFit(items, 300)
		if err != nil {
			return false
		}
		merged, err := MergeGroups(bins, k)
		if err != nil {
			return false
		}
		return Verify(items, merged) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FFD never uses more bins than 2x optimal lower bound
// ceil(total/cap) would allow by the classical 11/9 OPT + 1 bound; we check
// the weaker but assumption-free bound bins ≤ 2*ceil(total/cap) + 1 for
// inputs with no oversized items.
func TestFFDBinCountBoundProperty(t *testing.T) {
	f := func(rawSizes []uint8) bool {
		const capacity = 100
		items := make([]Item, len(rawSizes))
		var total int64
		for i, s := range rawSizes {
			size := int64(s%100) + 1
			items[i] = Item{ID: fmt.Sprintf("b%d", i), Size: size}
			total += size
		}
		bins, err := FirstFitDecreasing(items, capacity)
		if err != nil {
			return false
		}
		lower := (total + capacity - 1) / capacity
		return int64(len(bins)) <= 2*lower+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
