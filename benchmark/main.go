// Command benchmark is the repository's benchmark: five workloads that
// drive the real engine through each layer's public functions, gated
// end-to-end metrics measured with tracing off, and per-layer
// attribution from a separate traced run. BENCHMARK.json at the
// repository root names the workloads, metrics, units and bounds;
// README.md in this directory says why each was chosen.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one run, result JSON on the last line
//	benchmark -workload all -runs N -out report.json         every workload, both passes, N seeds
//	benchmark -compare A.json B.json                         per (workload, metric) verdicts
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"syscall"
)

// benchSpec mirrors BENCHMARK.json. The harness reads it for the metric
// names, units, directions and bounds instead of repeating them, and
// refuses to report a set of metrics that differs from the declared one.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []nameWhy    `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`

	root string // directory holding BENCHMARK.json
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (the benchmark's tests run from benchmark/).
func loadSpec() (*benchSpec, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		spec := &benchSpec{root: dir}
		if err := json.Unmarshal(data, spec); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return spec, spec.validate()
	}
	return nil, errors.New("BENCHMARK.json not found: run from the repository root")
}

// validate checks the contract's shape: counts, name and unit alphabets,
// a direction on every metric, a bound of at most 0.25 on every
// end-to-end metric and on no other, and a workload list equal to the
// one the harness implements.
func (s *benchSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("BENCHMARK.json: %d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("BENCHMARK.json: %d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("BENCHMARK.json: %d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("BENCHMARK.json: bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for i, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			return fmt.Errorf("BENCHMARK.json: workload %d is %q, harness has %v", i, w.Name, workloadNames)
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("BENCHMARK.json: workload %q needs a why of at most 200 characters", w.Name)
		}
	}
	metric := func(m metricSpec, gated bool) error {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("BENCHMARK.json: metric %q has bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("BENCHMARK.json: metric %q needs better = lower or higher", m.Name)
		}
		if gated != (m.Bound != nil) || (gated && (*m.Bound <= 0 || *m.Bound > 0.25)) {
			return fmt.Errorf("BENCHMARK.json: metric %q: end-to-end metrics carry a bound in (0, 0.25], per-layer metrics none", m.Name)
		}
		return nil
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		if err := metric(m, true); err != nil {
			return err
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		return errors.New("BENCHMARK.json: end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range s.PerLayer {
		if err := metric(m, false); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "input seed: corpus content, request mix, arrival schedule")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
		quick    = flag.Bool("quick", false, "tiny corpora, single repeats: a smoke run, not a measurement")
		runs     = flag.Int("runs", 1, "with -workload all: repeat every workload with seeds seed..seed+runs-1")
		out      = flag.String("out", "", "with -workload all: report file (default benchmark/out/report.json)")
		compare  = flag.Bool("compare", false, "compare two report files given as arguments")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	outDir := filepath.Join(spec.root, "benchmark", "out")
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two report files"))
		}
		worse, err := compareReports(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workload == "all":
		if *out == "" {
			*out = filepath.Join(outDir, "report.json")
		}
		if err := runAll(ctx, spec, *seed, *runs, *seconds, *quick, *out); err != nil {
			fatal(err)
		}
	default:
		cfg := config{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick,
			workDir: filepath.Join(spec.root, ".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
			outDir:  outDir,
		}
		fmt.Fprintf(os.Stderr, "run: workload=%s seed=%d seconds=%g trace=%d quick=%v\n", cfg.workload, cfg.seed, cfg.seconds, *trace, cfg.quick)
		fmt.Fprintln(os.Stderr, envOf(cfg.workDir))
		res, err := run(ctx, cfg, spec)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printResult lists every metric by name with its unit on standard
// error and puts the machine-readable result on the last line of
// standard output.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "%-40s %14d of %d\n", "failed ops", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// env is what a reader needs to place the numbers: the sandbox's size
// and the load constants.
type env struct {
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	WorkDirFS  string    `json:"work_dir_fs"`
	Fleet      int       `json:"fleet_size"`
	Conns      int       `json:"client_connections"`
	Rates      []float64 `json:"rate_steps_rps"`
	C25Files   int       `json:"c25_files"`
	C2Files    int       `json:"c2_files"`
}

func envOf(workDir string) env {
	return env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		WorkDirFS: fsType(workDir), Fleet: fleetSize, Conns: connections, Rates: rateSteps[:],
		C25Files: fullCorpus.c25, C2Files: fullCorpus.c2,
	}
}

func (e env) String() string {
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d %s workdir-fs=%s fleet=%d connections=%d rates=%v req/s",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.WorkDirFS, e.Fleet, e.Conns, e.Rates)
}
