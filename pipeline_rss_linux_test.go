package repro

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestPipelineDirStreamsTheCorpus: a one-shot `pipeline -dir` scan reads
// each file when the scan reaches it instead of loading the corpus first,
// so the child's peak RSS stays under half the corpus bytes. The corpus
// is 40 MiB of 64 KiB files, each small enough that a resident import
// would have copied it into its slabs. The race detector's shadow memory
// would swamp the bound, so a race build skips it.
func TestPipelineDirStreamsTheCorpus(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the corpus")
	}
	bin := commandBins(t)
	dir := t.TempDir()
	const files, size = 640, 64 << 10
	data := bytes.Repeat([]byte("The quick brown fox jumps over the lazy dog. "), size/45+1)[:size]
	for i := 0; i < files; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%04d.txt", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	cmd := exec.Command(bin+"pipeline", "-dir", dir, "-measure", "-measure-only")
	cmd.Stdout, cmd.Stderr = &out, &out
	peak, err := peakRSS(t, cmd)
	if err != nil || !fingerprintRE.Match(out.Bytes()) {
		t.Fatalf("pipeline -dir -measure -measure-only: %v\n%s", err, out.Bytes())
	}
	if peak == 0 {
		t.Skip("no VmHWM in the child's /proc status")
	}
	t.Logf("peak RSS %d bytes over a %d-byte corpus", peak, files*size)
	if corpusBytes := int64(files * size); peak >= corpusBytes/2 {
		t.Errorf("pipeline -dir peaked at %d bytes RSS over a %d-byte corpus, want under half", peak, corpusBytes)
	}
}

// peakRSS runs cmd and returns the highest VmHWM its /proc status showed,
// sampled every millisecond until it exits. The child's rusage cannot
// say: Go starts a child on the parent's address space (CLONE_VM) until
// it execs, and the exec records that space's peak, the test binary's,
// as the child's maxrss.
func peakRSS(t *testing.T, cmd *exec.Cmd) (int64, error) {
	t.Helper()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	status := fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var peak int64
	for tick := time.NewTicker(time.Millisecond); ; {
		b, _ := os.ReadFile(status) // gone once the child has exited
		if _, rest, ok := strings.Cut(string(b), "\nVmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.SplitN(rest, "\n", 2)[0], "kB")), 10, 64)
			peak = max(peak, kb<<10)
		}
		select {
		case err := <-done:
			tick.Stop()
			return peak, err
		case <-tick.C:
		}
	}
}
