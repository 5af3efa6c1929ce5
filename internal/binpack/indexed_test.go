package binpack

import (
	"fmt"
	"math/rand"
	"testing"
)

// packersMatch asserts two packings are identical bin-for-bin.
func packersMatch(t *testing.T, label string, got, want []*Bin) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bins != reference %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Capacity != w.Capacity || g.Used != w.Used || g.Oversized != w.Oversized ||
			len(g.Items) != len(w.Items) || len(g.Pos) != len(w.Pos) {
			t.Fatalf("%s: bin %d header %+v != reference %+v", label, i, g, w)
		}
		for j := range w.Items {
			if g.Items[j] != w.Items[j] || g.Pos[j] != w.Pos[j] {
				t.Fatalf("%s: bin %d item %d %+v at %d != reference %+v at %d",
					label, i, j, g.Items[j], g.Pos[j], w.Items[j], w.Pos[j])
			}
		}
	}
}

// randomItems generates adversarial inputs: duplicates, zeros and
// oversized items mixed in.
func randomItems(r *rand.Rand, n int, capacity int64) []Item {
	items := make([]Item, n)
	for i := range items {
		var size int64
		switch r.Intn(10) {
		case 0:
			size = 0
		case 1:
			size = capacity + r.Int63n(capacity) // oversized
		case 2:
			size = capacity // exact fit
		default:
			size = r.Int63n(capacity) + 1
		}
		items[i] = Item{ID: fmt.Sprintf("r%05d", i), Size: size}
	}
	return items
}

func TestFirstFitMatchesLinearReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		capacity := int64(1000 + r.Intn(9000))
		items := randomItems(r, 1+r.Intn(400), capacity)
		fast, err := FirstFit(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := FirstFitLinear(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		packersMatch(t, fmt.Sprintf("trial %d", trial), fast, ref)
		if err := Verify(items, fast); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSubsetSumFirstFitMatchesLinearReference(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 25; trial++ {
		capacity := int64(1000 + r.Intn(9000))
		items := randomItems(r, 1+r.Intn(400), capacity)
		fast, err := SubsetSumFirstFit(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := SubsetSumFirstFitLinear(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		packersMatch(t, fmt.Sprintf("trial %d", trial), fast, ref)
		if err := Verify(items, fast); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestFirstFitEqualSizesStable(t *testing.T) {
	// All-equal sizes exercise tie-breaking: both implementations must fill
	// bins in creation order.
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("e%03d", i), Size: 10}
	}
	fast, _ := FirstFit(items, 35)
	ref, _ := FirstFitLinear(items, 35)
	packersMatch(t, "equal sizes", fast, ref)
	ss, _ := SubsetSumFirstFit(items, 35)
	ssRef, _ := SubsetSumFirstFitLinear(items, 35)
	packersMatch(t, "equal sizes subset-sum", ss, ssRef)
}

func TestBinIndexGrow(t *testing.T) {
	// Force the tree past its initial sizing to cover grow().
	ix := newBinIndex()
	for i := 0; i < 9; i++ {
		ix.push(int64(i))
	}
	for need := int64(0); need < 9; need++ {
		if got := ix.findFirst(need); got != int(need) {
			t.Fatalf("findFirst(%d) = %d", need, got)
		}
	}
	ix.set(3, 100)
	if got := ix.findFirst(50); got != 3 {
		t.Fatalf("after set: findFirst(50) = %d", got)
	}
}

func TestNextUnusedSkips(t *testing.T) {
	nx := newNextUnused(5)
	nx.consume(0)
	nx.consume(1)
	nx.consume(3)
	if got := nx.find(0); got != 2 {
		t.Fatalf("find(0) = %d", got)
	}
	nx.consume(2)
	if got := nx.find(0); got != 4 {
		t.Fatalf("find(0) after consume(2) = %d", got)
	}
	nx.consume(4)
	if got := nx.find(0); got != 5 {
		t.Fatalf("find(0) exhausted = %d", got)
	}
}
