package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/scan"
	"repro/internal/vfs"
)

// workload is what the runner drives; batch workloads get warmup,
// measure and layers from closedLoop, the daemon workload brings its
// own.
type workload interface {
	inputs(ctx context.Context, dir string, fs *vfs.FS) error
	setup(ctx context.Context, dir string, fs *vfs.FS) error
	oracle(ctx context.Context, members []memFile) error
	// warmup runs two untimed-op equivalents; the returned func
	// verifies their outputs once the set-up clock has stopped.
	warmup(ctx context.Context) (verify func() error, err error)
	// measure runs the workload for about d. With a tracer it
	// interleaves traced and untraced work so the two compare.
	measure(ctx context.Context, d time.Duration, tr *tracer) (*timing, error)
	// layers adds the workload's own per-layer metrics after a traced
	// measure.
	layers(ctx context.Context, tm *timing, tr *tracer, reps int, out map[string]float64) error
	sources(ctx context.Context) ([]scan.Source, io.Closer, error)
	packStats() (stored int64, shards int)
	inputBytes() int64
	close() error
}

// timing is what one measure call observed.
type timing struct {
	opMS              []float64 // per-op wall times with tracing off
	opsPerSec         float64
	attempted, failed int
	firstErr          error
	// traceOverhead is traced ÷ untraced op time, from a traced measure.
	traceOverhead float64
	extra         map[string]float64 // workload-specific per-layer values
}

func (tm *timing) note(err error) {
	tm.attempted++
	if err != nil {
		tm.failed++
		if tm.firstErr == nil {
			tm.firstErr = err
		}
	}
}

// closedLoop adapts a batch workload to the runner: one caller issuing
// ops back to back.
type closedLoop struct{ batch }

func (c closedLoop) warmup(ctx context.Context) (func() error, error) {
	var checks []func() error
	for i := 0; i < 2; i++ {
		check, err := c.op(ctx, nil, -1, i)
		if err != nil {
			return nil, err
		}
		checks = append(checks, check)
	}
	return func() error {
		var err error
		for _, check := range checks {
			err = errors.Join(err, check())
		}
		return err
	}, nil
}

// measure issues ops until d has passed. Each op is timed on its own;
// verifying its output and cleaning up after it fall outside the timed
// interval, and ops_per_s counts only time spent inside ops. With a
// tracer, odd ops are traced and even ops are not, and the tracing
// overhead is the median ratio of each traced op to the untraced op
// just before it, which cancels the sandbox's slow drift.
func (c closedLoop) measure(ctx context.Context, d time.Duration, tr *tracer) (*timing, error) {
	tm := &timing{}
	var busy time.Duration
	var overhead []float64
	deadline := time.Now().Add(d)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		t := tr
		if i%2 == 0 {
			t = nil
		}
		root := t.begin("op", -1, i)
		t0 := time.Now()
		check, err := c.op(ctx, t, root, i)
		took := time.Since(t0)
		t.end(root)
		if err == nil {
			err = check()
		}
		tm.note(err)
		if t != nil {
			overhead = append(overhead, ms(took)/tm.opMS[len(tm.opMS)-1])
			continue
		}
		tm.opMS = append(tm.opMS, ms(took))
		busy += took
	}
	tm.opsPerSec = float64(len(tm.opMS)) / busy.Seconds()
	tm.traceOverhead = median(overhead)
	return tm, nil
}

// layers defers to the batch workload when it has metrics of its own.
func (c closedLoop) layers(ctx context.Context, tm *timing, tr *tracer, reps int, out map[string]float64) error {
	if l, ok := c.batch.(layerer); ok {
		return l.layers(ctx, tm, tr, reps, out)
	}
	return nil
}

type layerer interface {
	layers(ctx context.Context, tm *timing, tr *tracer, reps int, out map[string]float64) error
}

// workloadNames is the fixed order the benchmark reports in.
var workloadNames = []string{"grep-smallfiles", "pos-packed", "reshape-export", "dist-packed", "serve-mixed"}

func newWorkload(name string, seed int64, files corpusFiles) (workload, int, error) {
	switch name {
	case "grep-smallfiles":
		return closedLoop{&grepSmallfiles{}}, files.c25, nil
	case "pos-packed":
		return closedLoop{&posPacked{}}, files.c25, nil
	case "reshape-export":
		return closedLoop{&reshapeExport{}}, files.c25, nil
	case "dist-packed":
		return closedLoop{&distPacked{}}, files.c25, nil
	case "serve-mixed":
		return &serveMixed{seed: seed}, files.c2, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick shrinks the corpora and repeats everything once: the smoke
	// test's setting, not a measurement.
	quick   bool
	workDir string // scratch directory, created and removed by run
	outDir  string // where the traced run leaves trace-<workload>.json
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const setupReps = 3

// run executes one workload once and returns its metrics: the gated
// end-to-end set with tracing off, the per-layer set with tracing on.
func run(ctx context.Context, cfg config, spec *benchSpec) (*result, error) {
	files, probeReps := fullCorpus, 3
	if cfg.quick {
		files, probeReps = quickCorpus, 1
	}
	reps := setupReps
	if cfg.quick || cfg.trace {
		reps = 1 // set-up time is an end-to-end metric; the traced run does not report it
	}
	w, nfiles, err := newWorkload(cfg.workload, cfg.seed, files)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	defer func() { _ = w.close() }()

	// Set-up: what the program does before the first timed op —
	// generate, reshape and pack, import, fleet or server start,
	// warm-up. Repeated from scratch and reported as the median. Writing
	// the given input files and building the oracle are the harness's
	// own work, done once and kept off the clock.
	var setups, gens []float64
	var members []memFile
	for rep := 0; rep < reps; rep++ {
		dir := filepath.Join(cfg.workDir, strconv.Itoa(rep))
		if rep > 0 {
			if err := w.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(filepath.Join(cfg.workDir, strconv.Itoa(rep-1))); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		fs, err := generate(ctx, nfiles, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		gen := time.Since(t0)
		if rep == 0 {
			if err := w.inputs(ctx, filepath.Join(cfg.workDir, "in"), fs); err != nil {
				return nil, fmt.Errorf("inputs: %w", err)
			}
		}
		t1 := time.Now()
		if err := w.setup(ctx, dir, fs); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		onClock := gen + time.Since(t1)
		if rep == 0 {
			if members, err = memFiles(fs); err != nil {
				return nil, err
			}
			if err := w.oracle(ctx, members); err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
		}
		t1 = time.Now()
		verify, err := w.warmup(ctx)
		onClock += time.Since(t1)
		if err == nil {
			err = verify()
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, onClock.Seconds())
		gens = append(gens, gen.Seconds())
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		d = d * 6 / 10 // the rest of the traced run's time goes to the layer probes
	} else {
		members = nil // only the probes need them
	}
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tm, err := w.measure(ctx, d, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	if tm.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: %d of %d ops failed; first: %v\n", cfg.workload, tm.failed, tm.attempted, tm.firstErr)
	}

	values := map[string]float64{}
	declared := spec.EndToEnd
	if !cfg.trace {
		values["setup_s"] = median(setups)
		values["op_ms_p50"] = median(tm.opMS)
		values["ops_per_s"] = tm.opsPerSec
		values["alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(tm.attempted)
		values["peak_rss_mb"] = peakRSSMB()
	} else {
		declared = spec.PerLayer
		for _, m := range declared {
			values[m.Name] = 0 // a layer this workload never calls reads 0
		}
		values["corpus.generate_s"] = median(gens)
		if err := traceMetrics(tm, tr, w.inputBytes(), values); err != nil {
			return nil, err
		}
		if err := w.layers(ctx, tm, tr, probeReps, values); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		if err := probes(ctx, w, members, probeReps, values); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := tr.writeTraceEvents(path); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: tm.failed == 0, Attempted: tm.attempted, Failed: tm.failed, Metrics: map[string]metricValue{}}
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares %q but the harness did not measure it", m.Name)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		delete(values, m.Name)
	}
	for name := range values {
		return nil, fmt.Errorf("harness measured %q but BENCHMARK.json does not declare it", name)
	}
	return res, nil
}

// traceMetrics turns the traced measure's spans into per-layer values.
// A span named S whose S+"_ms" the caller pre-declared becomes that
// metric: the median duration of those spans, one per traced op.
func traceMetrics(tm *timing, tr *tracer, inputBytes int64, out map[string]float64) error {
	for name, durs := range tr.byName() {
		if _, ok := out[name+"_ms"]; ok {
			out[name+"_ms"] = median(durs)
		}
	}
	for name, counts := range tr.counts {
		out[name] = median(counts)
	}
	// Residual: the share of an op its root span spent outside every
	// child span — time the harness cannot attribute to a layer call.
	self := tr.selfTimes()
	var residual []float64
	for i, s := range tr.spans {
		if s.Parent < 0 && s.dur() > 0 {
			residual = append(residual, float64(self[i])/float64(s.dur()))
		}
	}
	if len(tm.opMS) == 0 || len(residual) == 0 {
		return errors.New("traced run too short: no op of each kind completed")
	}
	p50 := median(tm.opMS)
	out["trace.residual_ratio"] = median(residual)
	out["trace.overhead_ratio"] = tm.traceOverhead
	v, pct := tail(sortedCopy(tm.opMS))
	out["op_ms_tail"], out["op_ms_tail_pct"], out["op_samples"] = v, pct, float64(len(tm.opMS))
	out["scan_mbps"] = float64(inputBytes) / 1e6 / (p50 / 1e3)
	return nil
}

// resetPeakRSS restarts the kernel's high-water mark so that
// peak_rss_mb covers the measured section, not set-up's corpus copies.
// Where /proc/self/clear_refs is missing or read-only the mark simply
// covers the whole process, on both sides of any comparison.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads VmHWM; it returns the Go runtime's view of memory
// obtained from the OS where /proc is absent.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
				return kb * 1024 / 1e6
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}
