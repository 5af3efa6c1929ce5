//go:build scandebug

package scan

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/vfs"
)

// retainingKernel deliberately violates the Block contract: it keeps the
// last delivered slice instead of copying it. Under the scandebug tag the
// engine poisons recycled buffers, so the retained bytes are provably
// clobbered after the run — the mechanism this build mode exists for.
type retainingKernel struct {
	last []byte
}

func (k *retainingKernel) Fork() Kernel       { return k } // shared on purpose: keep the evidence
func (k *retainingKernel) Begin(Source)       {}
func (k *retainingKernel) Block(p []byte)     { k.last = p }
func (k *retainingKernel) End()               {}
func (k *retainingKernel) Merge(other Kernel) {}

// TestPoisonClobbersRetainedBuffers proves the scandebug mode works: a
// kernel that illegally retains a streaming Block slice observes 0xDB
// poison after the run, never the original bytes.
func TestPoisonClobbersRetainedBuffers(t *testing.T) {
	content := bytes.Repeat([]byte("retain-me "), 20)
	srcs := []Source{vfs.NewContentFile("a.txt", int64(len(content)),
		vfs.Opener(func() (io.Reader, error) { return bytes.NewReader(content), nil }))}
	bad := &retainingKernel{}
	if err := Run(context.Background(), srcs, Options{Workers: 1}, bad); err != nil {
		t.Fatal(err)
	}
	if len(bad.last) == 0 {
		t.Fatal("kernel never saw a block")
	}
	for i, b := range bad.last {
		if b != poisonByte {
			t.Fatalf("retained byte %d is %#x, want poison %#x — recycled buffer was not clobbered", i, b, poisonByte)
		}
	}
}

// TestPoisonDoesNotChangeResults: poisoning recycles only — a compliant
// kernel's output is identical with poison on.
func TestPoisonDoesNotChangeResults(t *testing.T) {
	streaming, raw := rawCorpus(30)
	for _, srcs := range [][]Source{streaming, raw} {
		one := NewChecksum()
		if err := Run(context.Background(), srcs, Options{Workers: 1, BlockSize: 128}, one); err != nil {
			t.Fatal(err)
		}
		eight := NewChecksum()
		if err := Run(context.Background(), srcs, Options{Workers: 8, BlockSize: 128}, eight); err != nil {
			t.Fatal(err)
		}
		for i := range one.Sums() {
			if one.Sums()[i] != eight.Sums()[i] {
				t.Fatalf("file %d: workers=1 %+v != workers=8 %+v under poison", i, one.Sums()[i], eight.Sums()[i])
			}
		}
	}
}
