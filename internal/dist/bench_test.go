package dist

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
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
	cs := corpus.Text400K(1)
	cs.NumFiles = 2000
	genFS, err := corpus.GenerateWithContentEagerCtx(ctx, cs, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := genFS.ExportPackCtx(ctx, dir, vfs.PackOptions{Prefix: "m", ShardSize: 256 << 10}); err != nil {
		b.Fatal(err)
	}
	mfs, closer, err := vfs.ImportPackMappedCtx(ctx, dir)
	if err != nil {
		b.Fatal(err)
	}
	defer closer.Close()
	plan := scan.NewPlan(vfs.Sources(mfs.List()), scan.PlanOptions{})
	spec := Spec{Patterns: []string{"the", "and", "president", "market", "city", "nation", "report", "error"}, Complexity: true}
	fleet := make([]Worker, 2)
	for i := range fleet {
		name := fmt.Sprintf("w%d", i)
		ts := httptest.NewServer(NewWorkerServer(name, plan).Handler())
		defer ts.Close()
		fleet[i] = NewHTTPWorker(name, ts.URL)
	}
	want, err := core.MeasurePlanCtx(ctx, plan, spec.MeasureOptions())
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := Measure(ctx, plan, spec, fleet, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !reflect.DeepEqual(m, want) {
			b.Fatal("distributed measurement differs from core.MeasurePlanCtx on the same plan")
		}
	}
	b.ReportMetric(float64(len(plan.Tasks)), "tasks")
}
