package dist

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/scan"
	"repro/internal/vfs"
)

// BenchmarkDistMeasure is one distributed measurement the way dist-packed
// runs it, at a twelfth of its size: a 2 000-file corpus.Text400K corpus
// exported one member per file into 256 KiB pack shards (one plan task
// each) and mapped, two WorkerServers behind httptest servers, and the
// eight-pattern set with complexity. The coordinator's fold, the wire and
// the workers' scans all run in this process, so B/op is the whole
// distribution's allocation. Run it with `make bench-dist`.
func BenchmarkDistMeasure(b *testing.B) {
	ctx := context.Background()
	plan, fleet := httpFleet(b, 2000, 256<<10)
	want, err := core.MeasurePlanCtx(ctx, plan, benchSpec.MeasureOptions())
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := Measure(ctx, plan, benchSpec, fleet, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !reflect.DeepEqual(m, want) {
			b.Fatal("distributed measurement differs from core.MeasurePlanCtx on the same plan")
		}
	}
	b.ReportMetric(float64(len(plan.Tasks)), "tasks")
}

// benchSpec is dist-packed's kernel set: the eight patterns with
// complexity.
var benchSpec = Spec{Patterns: []string{"the", "and", "president", "market", "city", "nation", "report", "error"}, Complexity: true}

// httpFleet exports n corpus.Text400K files one member per entry into
// pack shards of shardSize bytes (one plan task each), maps them, and
// starts two WorkerServers behind httptest servers over the plan.
func httpFleet(tb testing.TB, n int, shardSize int64) (*scan.Plan, []Worker) {
	ctx := context.Background()
	cs := corpus.Text400K(1)
	cs.NumFiles = n
	genFS, err := corpus.GenerateWithContentEagerCtx(ctx, cs, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if _, err := genFS.ExportPackCtx(ctx, dir, vfs.PackOptions{Prefix: "m", ShardSize: shardSize}); err != nil {
		tb.Fatal(err)
	}
	mfs, closer, err := vfs.ImportPackMappedCtx(ctx, dir)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { closer.Close() })
	plan := scan.NewPlan(mfs.List(), scan.PlanOptions{})
	fleet := make([]Worker, 2)
	for i := range fleet {
		name := fmt.Sprintf("w%d", i)
		ts := httptest.NewServer(NewWorkerServer(name, plan).Handler())
		tb.Cleanup(ts.Close)
		fleet[i] = NewHTTPWorker(name, ts.URL)
	}
	return plan, fleet
}

// TestDistMeasureAllocsPerTask bounds what a warm run over two HTTP
// workers allocates against the same coordinator over two in-process
// workers that do the same scans but answer with states snapshotted once
// up front: the difference is what the answers cost. Over HTTP each
// state is encoded once, straight into the worker's pooled answer
// buffer, and read once, into a receive buffer the coordinator hands
// back after the fold, so what remains is the round trips, well under
// the kernel-state bytes the plan's tasks carry (S). A snapshot buffer
// per kernel, or a body buffer per task, would each add S.
func TestDistMeasureAllocsPerTask(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1 200-file pack fleet")
	}
	if raceEnabled {
		t.Skip("the race build's sync.Pool drops buffers at random")
	}
	ctx := context.Background()
	plan, fleet := httpFleet(t, 1200, 512<<10)
	prepaid := make([]Worker, len(fleet))
	state := 0
	for i := range prepaid {
		l, err := NewLocal(fmt.Sprintf("l%d", i), plan, benchSpec)
		if err != nil {
			t.Fatal(err)
		}
		w := &prepaidWorker{Local: l, answers: make([]*ScanResponse, len(plan.Tasks))}
		for task := range plan.Tasks {
			if w.answers[task], err = l.Scan(ctx, &ScanRequest{PlanFP: plan.Fingerprint(), Spec: benchSpec, Task: task}); err != nil {
				t.Fatal(err)
			}
			for _, s := range w.answers[task].States {
				if i == 0 {
					state += len(s)
				}
			}
		}
		prepaid[i] = w
	}

	// The collector stays off while the runs are measured, so no pooled
	// buffer is dropped between them (≈ 1.3–2 MB a run), and the figure
	// is the median of the first five runs that started each task once: a
	// steal scans a task twice. On a busy host steals come in streaks, so
	// the runs go on until five clean ones are in, up to 40. One P holds every pooled buffer: sync.Pool caches per P, and
	// with more than one a goroutine that the scheduler moves to another P
	// misses the buffers the last run left on the first, so on two loaded
	// cores a fleet's per-run figure spread 1.26–2.0 MB against a 139 KB
	// bound on the difference of two of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const cleanRuns, maxRuns = 5, 40
	bytesPerRun := func(fleet []Worker) float64 {
		var runs []float64
		for i := 0; len(runs) < cleanRuns; i++ {
			if i == maxRuns {
				t.Skipf("machine too noisy to tell: %d of %d runs started no task twice", len(runs), maxRuns-1)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, rep, err := Measure(ctx, plan, benchSpec, fleet, Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			started := 0
			for _, s := range rep.Workers {
				started += s.Started
			}
			if i > 0 && started == len(plan.Tasks) { // the first run builds and grows
				runs = append(runs, float64(after.TotalAlloc-before.TotalAlloc))
			}
		}
		slices.Sort(runs)
		return runs[len(runs)/2]
	}
	httpBytes, prepaidBytes := bytesPerRun(fleet), bytesPerRun(prepaid)
	extra := (httpBytes - prepaidBytes) / float64(state)
	t.Logf("%d tasks, %d state bytes: HTTP fleet %.0f B/run, prepaid in-process fleet %.0f B/run: answers cost %.2f S",
		len(plan.Tasks), state, httpBytes, prepaidBytes, extra)
	if extra > 0.5 {
		t.Errorf("the answers of a warm HTTP run allocate %.2f × the state bytes they carry, want ≤ 0.5: is a state encoded or read into a buffer of its own again?", extra)
	}
}

// prepaidWorker scans each task the way its Local does, then answers
// with the states snapshotted for it before the measurement.
type prepaidWorker struct {
	*Local
	answers []*ScanResponse
}

func (w *prepaidWorker) Scan(ctx context.Context, req *ScanRequest) (*ScanResponse, error) {
	if _, err := w.scanTask(ctx, req); err != nil {
		return nil, err
	}
	return w.answers[req.Task], nil
}
