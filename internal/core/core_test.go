package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/perfmodel"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{DeadlineSeconds: 10}); err == nil {
		t.Error("expected error for missing app")
	}
	if _, err := New(Config{App: workload.NewGrep()}); err == nil {
		t.Error("expected error for missing deadline")
	}
	// A NaN deadline plans zero bins, and one past a Duration overflows the
	// run's timeout into the past: both are refused up front, by name.
	for _, d := range []float64{math.NaN(), math.Inf(1), -1, 1e300, float64(math.MaxInt64) / float64(time.Second)} {
		_, err := New(Config{App: workload.NewGrep(), DeadlineSeconds: d})
		if !errors.Is(err, errs.ErrInvalid) || !strings.Contains(err.Error(), "DeadlineSeconds") {
			t.Errorf("DeadlineSeconds %v: err = %v, want ErrInvalid naming the field", d, err)
		}
	}
}

func TestPipelineGrepEndToEnd(t *testing.T) {
	fs, err := corpus.Generate(corpus.HTML18Mil(0.0002), 42) // 3600 files ≈ 180 MB
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Seed:            42,
		App:             workload.NewGrep(),
		DeadlineSeconds: 60,
		InitialVolume:   1_000_000,
		MaxVolume:       100_000_000,
		S0:              1_000_000,
		Multiples:       []int{10, 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instance == nil || res.Instance.Quality.Grade() == "slow" {
		t.Error("pipeline did not qualify a good instance")
	}
	if len(res.ProbeSets) == 0 {
		t.Fatal("no probe sets")
	}
	// grep must prefer merged units over the original small files.
	if res.PreferredUnit == 0 {
		t.Error("grep pipeline kept original segmentation; merging should win")
	}
	if res.Model == nil || res.Model.R2() < 0.9 {
		t.Errorf("weak model: %v", res.Model)
	}
	if res.ReshapedBins == nil {
		t.Error("no reshaped bins despite merged preference")
	}
	if res.Plan == nil || res.Plan.Instances < 1 {
		t.Fatalf("bad plan: %+v", res.Plan)
	}
	// Execute the plan end to end.
	out, err := p.ExecuteCtx(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerInstance) != res.Plan.Instances {
		t.Error("execution does not match plan size")
	}
}

func TestPipelinePOSKeepsOriginalSegmentation(t *testing.T) {
	fs, err := corpus.Generate(corpus.Text400K(0.01), 7) // 4000 files ≈ 8 MB
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Seed:            7,
		App:             workload.NewPOS(),
		DeadlineSeconds: 120,
		InitialVolume:   100_000,
		MaxVolume:       4_000_000,
		S0:              1_000, // the paper's 1 kB base unit for the text set
		Multiples:       []int{10, 100, 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 7: original segmentation fares best for the memory-bound tagger.
	if res.PreferredUnit != 0 {
		t.Errorf("POS preferred unit = %d, want 0 (original)", res.PreferredUnit)
	}
	if res.ReshapedBins != nil {
		t.Error("POS pipeline reshaped despite original preference")
	}
	if res.Plan == nil {
		t.Fatal("no plan")
	}
	if res.Plan.Model.Shape() != perfmodel.ShapeLinear && res.Model.R2() < 0.95 {
		t.Errorf("unexpected model: %v", res.Model)
	}
}

func TestPipelineDeterministic(t *testing.T) {
	run := func() (*Result, error) {
		fs, err := corpus.Generate(corpus.Text400K(0.005), 3)
		if err != nil {
			return nil, err
		}
		p, err := New(Config{
			Seed:            3,
			App:             workload.NewGrep(),
			DeadlineSeconds: 60,
			InitialVolume:   500_000,
			MaxVolume:       5_000_000,
			S0:              100_000,
			Multiples:       []int{10},
		})
		if err != nil {
			return nil, err
		}
		return p.RunCtx(context.Background(), fs)
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.PreferredUnit != b.PreferredUnit {
		t.Errorf("unit differs: %d vs %d", a.PreferredUnit, b.PreferredUnit)
	}
	if a.Plan.Instances != b.Plan.Instances {
		t.Errorf("instances differ: %d vs %d", a.Plan.Instances, b.Plan.Instances)
	}
	if a.Model.String() != b.Model.String() {
		t.Errorf("models differ: %v vs %v", a.Model, b.Model)
	}
}

func TestItemsFromFS(t *testing.T) {
	fs := vfs.NewFS()
	_ = fs.Add(vfs.NewFile("b", 2))
	_ = fs.Add(vfs.NewFile("a", 1))
	items := ItemsFromFS(fs)
	if len(items) != 2 || items[0].ID != "a" || items[1].ID != "b" {
		t.Errorf("items = %+v", items)
	}
}

func TestPipelineEmptyCorpus(t *testing.T) {
	p, err := New(Config{App: workload.NewGrep(), DeadlineSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunCtx(context.Background(), vfs.NewFS()); err == nil {
		t.Error("expected error for empty corpus")
	}
}

func TestExecuteWithoutPlan(t *testing.T) {
	p, err := New(Config{App: workload.NewGrep(), DeadlineSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecuteCtx(context.Background(), nil); err == nil {
		t.Error("expected error executing nil result")
	}
	if _, err := p.ExecuteCtx(context.Background(), &Result{}); err == nil {
		t.Error("expected error executing result without plan")
	}
}

func TestReshapePreservesContentExactly(t *testing.T) {
	in := vfs.NewFS()
	contents := map[string]string{
		"d1": "the first document. ",
		"d2": "the second one. ",
		"d3": "a third, rather longer, document follows here. ",
		"d4": "tiny. ",
	}
	for name, c := range contents {
		if err := in.Add(vfs.BytesFile(name, []byte(c))); err != nil {
			t.Fatal(err)
		}
	}
	out, bins, err := ReshapeCtx(context.Background(), in, 40, "unit")
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalSize() != in.TotalSize() {
		t.Errorf("total size changed: %d -> %d", in.TotalSize(), out.TotalSize())
	}
	// Every byte of every input must appear in the merged output, in bin
	// order.
	var allOut bytes.Buffer
	for _, f := range out.List() {
		data, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		allOut.Write(data)
	}
	for _, c := range contents {
		if !strings.Contains(allOut.String(), c) {
			t.Errorf("content %q lost in reshape", c)
		}
	}
	if len(bins) != out.Len() {
		t.Errorf("bins %d != output files %d", len(bins), out.Len())
	}
}

func TestReshapeValidation(t *testing.T) {
	in := vfs.NewFS()
	_ = in.Add(vfs.BytesFile("a", []byte("x")))
	if _, _, err := ReshapeCtx(context.Background(), in, 0, ""); err == nil {
		t.Error("expected error for zero unit size")
	}
}

func TestReshapeDefaultPrefix(t *testing.T) {
	in := vfs.NewFS()
	_ = in.Add(vfs.BytesFile("a", []byte("xyz")))
	out, _, err := ReshapeCtx(context.Background(), in, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.List()[0].Name, "unit-") {
		t.Errorf("default prefix missing: %s", out.List()[0].Name)
	}
}
