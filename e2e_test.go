package repro

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/server"
)

// daemon is one built command running as a child process: its address
// from the "listening on" line, and everything it wrote to stderr.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
}

var listeningRE = regexp.MustCompile(`listening on http://([0-9.:]+)`)

// startDaemon starts bin and waits, on its stdout pipe, for the line that
// says where it listens.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...)}
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() })
	addr := make(chan string, 1)
	go func() {
		defer close(addr)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listeningRE.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
				io.Copy(io.Discard, stdout)
				return
			}
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.cmd.Wait()
			t.Fatalf("%s exited before listening:\n%s", filepath.Base(bin), d.stderr.String())
		}
		d.addr = a
	case <-time.After(60 * time.Second):
		t.Fatalf("%s never reported its address:\n%s", filepath.Base(bin), d.stderr.String())
	}
	return d
}

// terminate sends SIGTERM and requires the repository's signal contract:
// a drain line on stderr and exit code 130.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := d.cmd.Wait()
	if code := d.cmd.ProcessState.ExitCode(); code != cli.ExitCodeCancelled {
		t.Errorf("%s exited %d (%v) after SIGTERM, want %d:\n%s", filepath.Base(d.cmd.Path), code, err, cli.ExitCodeCancelled, d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), ": drained") {
		t.Errorf("%s: no drain line:\n%s", filepath.Base(d.cmd.Path), d.stderr.String())
	}
}

// call sends one request and decodes a 200 answer into out.
func call(t *testing.T, method, url, body string, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
}

var (
	fingerprintRE = regexp.MustCompile(`(?m)^measurement fingerprint: ([0-9a-f]{16}) \(plan [0-9a-f]{16}, (\d+) files, (\d+) tasks\)`)
	patternRE     = regexp.MustCompile(`(?m)^  pattern "(\w+)": (\d+) matches`)
)

// measured is what one `pipeline -measure-only` run printed.
type measured struct {
	fingerprint  string
	files, tasks int
	totals       []int64 // per -grep pattern, in flag order
	out          string
}

func runPipeline(t *testing.T, bin string, args ...string) measured {
	t.Helper()
	return runPipelineEnv(t, nil, bin, args...)
}

// runPipelineEnv is runPipeline with extra NAME=value pairs in the
// child's environment.
func runPipelineEnv(t *testing.T, env []string, bin string, args ...string) measured {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("pipeline %v: %v\n%s", args, err, out)
	}
	m := measured{out: string(out)}
	fp := fingerprintRE.FindStringSubmatch(m.out)
	if fp == nil {
		t.Fatalf("pipeline %v printed no fingerprint:\n%s", args, out)
	}
	m.fingerprint = fp[1]
	m.files, _ = strconv.Atoi(fp[2])
	m.tasks, _ = strconv.Atoi(fp[3])
	for _, p := range patternRE.FindAllStringSubmatch(m.out, -1) {
		n, _ := strconv.ParseInt(p[2], 10, 64)
		m.totals = append(m.totals, n)
	}
	return m
}

// failCommand runs a built command with arguments it must refuse or die
// on, requires exactly the exit code want (so a race report's 66 or a
// signal never passes for the expected failure) and returns what it
// printed.
func failCommand(t *testing.T, bin string, want int, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != want {
		t.Fatalf("%s %v: %v, want exit code %d\n%s", filepath.Base(bin), args, err, want, out)
	}
	return string(out)
}

// commands is the one build of cmd/... every end-to-end test in this
// package shares; TestMain removes it.
var commands struct {
	once sync.Once
	dir  string // ends in a path separator
	err  error
}

// commandBins builds corpusgen, experiments, reshape, pipeline, provision,
// serve, worker and every example once per test binary and returns the
// directory prefix to run them from. The build carries -race exactly when
// this test binary does, so `go test ./...` stays quick and `make verify`
// keeps the detector on in the children too.
func commandBins(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the commands as child processes")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build the commands with")
	}
	commands.once.Do(func() {
		dir, err := os.MkdirTemp("", "repro-commands-")
		if err != nil {
			commands.err = err
			return
		}
		commands.dir = dir + string(filepath.Separator)
		args := []string{"build"}
		if raceEnabled {
			args = append(args, "-race")
		}
		args = append(args, "-o", commands.dir,
			"./cmd/corpusgen", "./cmd/experiments", "./cmd/reshape", "./cmd/pipeline", "./cmd/provision", "./cmd/serve", "./cmd/worker")
		for _, name := range exampleNames() {
			args = append(args, "./examples/"+name)
		}
		if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
			commands.err = fmt.Errorf("go %v: %v\n%s", args, err, out)
		}
	})
	if commands.err != nil {
		t.Fatal(commands.err)
	}
	return commands.dir
}

// exampleNames lists the example programs: one main package per directory
// under examples/.
func exampleNames() []string {
	mains, _ := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	names := make([]string, len(mains))
	for i, m := range mains {
		names[i] = filepath.Base(filepath.Dir(m))
	}
	return names
}

// matchGolden compares a command's stdout with testdata/<name>.golden. The
// goldens were recorded on amd64, as all.golden was; another architecture
// may fuse multiply-adds and round the last printed digits differently,
// so there only the run itself is checked.
func matchGolden(t *testing.T, name string, out []byte) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("%s: printed\n%s\nwant testdata/%s.golden\n%s", name, out, name, want)
	}
}

// TestExamplesRun runs every example to completion. The API guard counts
// an example as a production caller, so an example that only builds would
// keep an API alive without exercising it: each must exit 0 and print
// exactly its golden output.
func TestExamplesRun(t *testing.T) {
	bin := commandBins(t)
	names := exampleNames()
	if len(names) == 0 {
		t.Fatal("no examples found under examples/")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin + name)
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			if len(bytes.TrimSpace(out)) == 0 {
				t.Fatalf("printed nothing\n%s", stderr.String())
			}
			matchGolden(t, "example-"+name, out)
		})
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if commands.dir != "" {
		os.RemoveAll(commands.dir)
	}
	os.Exit(code)
}

// runCommand runs one built command to completion and fails the test
// with its output if it exits non-zero.
func runCommand(t *testing.T, bin string, args ...string) {
	t.Helper()
	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
}

// TestReshapeOutputIsACorpus: plain reshape writes nothing but unit files
// into its output directory — the manifest goes beside it, as it does
// with -pack — so pipeline -dir over the output reads exactly the unit
// files and exactly the input's bytes.
func TestReshapeOutputIsACorpus(t *testing.T) {
	bin := commandBins(t)
	work := t.TempDir()
	corpusDir, units := filepath.Join(work, "corpus"), filepath.Join(work, "units")
	runCommand(t, bin+"corpusgen", "-spec", "text", "-scale", "0.0005", "-out", corpusDir)
	out, err := exec.Command(bin+"reshape", "-in", corpusDir, "-out", units, "-unit", "16384").CombinedOutput()
	if err != nil {
		t.Fatalf("reshape: %v\n%s", err, out)
	}
	var inFiles, unitFiles int
	var inBytes int64
	if _, err := fmt.Sscanf(string(out), "input: %d files, %d bytes\npacked into %d unit files", &inFiles, &inBytes, &unitFiles); err != nil || unitFiles < 2 {
		t.Fatalf("reshape printed no input and unit counts (%v):\n%s", err, out)
	}
	if info, err := os.Stat(units + ".manifest.txt"); err != nil || info.Size() == 0 {
		t.Fatalf("no manifest beside the output directory: %v", err)
	}
	m := runPipeline(t, bin+"pipeline", "-dir", units, "-measure", "-measure-only", "-grep", "the")
	if want := fmt.Sprintf("corpus: %d files, %d bytes\n", unitFiles, inBytes); !strings.Contains(m.out, want) {
		t.Fatalf("pipeline -dir over the reshaped output: want %q in\n%s", want, m.out)
	}
}

// TestProvisionCommand runs cmd/provision's plan modes and requires their
// plan lines, and refuses the numeric inputs it cannot plan for as usage
// errors (exit 2 naming the flag, no panic).
func TestProvisionCommand(t *testing.T) {
	provision := commandBins(t) + "provision"
	dir := t.TempDir()
	for i, size := range []int{40_000, 25_000, 60_000, 10_000} {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%d.txt", i)), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-volume", "1e9", "-deadline", "3600"},
			[]string{"strategy:         uniform-bins", "deadline:         3600 s (planned for 3600 s)", "instances:        25 (minimum 25)", "estimated cost:   $2.125"}},
		{[]string{"-volume", "1e9", "-deadline", "3600", "-adjust", "0.1525"},
			[]string{"deadline:         3600 s (planned for 3124 s)", "instances:        28 (minimum 28)", "estimated cost:   $2.380"}},
		{[]string{"-volume", "5e8", "-deadline", "7200", "-uniform=false", "-slope", "1.324e-8", "-intercept", "-0.974"},
			[]string{"strategy:         first-fit-original-order", "volume:           500000000 bytes in 500 files", "instance-hours:   2", "estimated cost:   $0.170"}},
		{[]string{"-dir", dir, "-deadline", "60", "-slope", "1e-5"},
			[]string{"volume:           135000 bytes in 4 files", "instances:        1 (minimum 1)", "estimated cost:   $0.085"}},
	} {
		out, err := exec.Command(provision, tc.args...).CombinedOutput()
		if err != nil {
			t.Fatalf("provision %v: %v\n%s", tc.args, err, out)
		}
		for _, line := range append(tc.want, "bin  bytes        files  predicted") {
			if !strings.Contains(string(out), line) {
				t.Errorf("provision %v: no %q in\n%s", tc.args, line, out)
			}
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-volume", "1e9", "-unit", "0"}, "-unit"},
		{[]string{"-volume", "10", "-unit", "-3"}, "-unit"},
		{[]string{"-volume", "1e9", "-rate", "-1"}, "-rate"},
		{[]string{"-volume", "1e9", "-sweep"}, "flag provided but not defined: -sweep"},
		{[]string{"-volume", "1e9", "-staging", "600"}, "flag provided but not defined: -staging"},
	} {
		out := failCommand(t, provision, 2, tc.args...)
		if !strings.Contains(out, tc.want) || strings.Contains(out, "panic") || strings.Contains(out, "goroutine") {
			t.Errorf("provision %v: want a usage error naming %q, got\n%s", tc.args, tc.want, out)
		}
	}
}

// TestExperimentsCommand runs cmd/experiments' listing and one ablation,
// which must print exactly its section of the pinned sweep, and refuses a
// scale it cannot run at, or an unknown ID, as a usage error (exit 2, no
// report, no panic).
func TestExperimentsCommand(t *testing.T) {
	bin := commandBins(t) + "experiments"
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -list: %v\n%s", err, out)
	}
	listed := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(listed) != 25 || len(experiments.Registry) != 25 {
		t.Errorf("-list printed %d lines for %d registered IDs, want 25", len(listed), len(experiments.Registry))
	}
	for i, e := range experiments.Registry {
		if i < len(listed) && strings.Fields(listed[i])[0] != e.ID {
			t.Errorf("-list line %d = %q, want ID %s", i+1, listed[i], e.ID)
		}
	}
	if runtime.GOARCH == "amd64" { // the architecture all.golden was recorded on
		golden, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", "all.golden"))
		if err != nil {
			t.Fatal(err)
		}
		_, want, _ := strings.Cut(string(golden), "\n== ablation-qualification:")
		want, _, _ = strings.Cut("== ablation-qualification:"+want, "\n== ")
		want += "\n" // the cut takes the blank line that ends each section
		out, err := exec.Command(bin, "-run", "ablation-qualification").Output()
		if err != nil {
			t.Fatalf("experiments -run ablation-qualification: %v", err)
		}
		if string(out) != want {
			t.Errorf("-run ablation-qualification printed\n%s\nwant its all.golden section\n%s", out, want)
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "fig1a", "-scale", "NaN"}, "-scale"},
		{[]string{"-run", "fig1a", "-scale", "Inf"}, "-scale"},
		{[]string{"-run", "fig1a", "-scale", "-1"}, "-scale"},
		{[]string{"-run", "fig1a", "-scale", "0"}, "-scale"},
		{[]string{"-run", "fig99"}, `unknown experiment "fig99"`},
	} {
		out := failCommand(t, bin, 2, tc.args...)
		if !strings.Contains(out, tc.want) || strings.Contains(out, "==") || strings.Contains(out, "panic") || strings.Contains(out, "goroutine") {
			t.Errorf("experiments %v: want a usage error naming %q and no report, got\n%s", tc.args, tc.want, out)
		}
	}
}

// TestCommandsRefuseHostileNumbers holds the commands' numeric flags to
// the cli readers: a seconds flag to cli.Seconds (a deadline to
// cli.PositiveSeconds), a scale or a unit size to cli.Positive, a count
// or a size whose 0 is its default to cli.Count, and a scale or volume
// past corpus.MaxFiles files to the cap. A NaN, negative, infinite or
// overflowing value — and a zero deadline or unit — exits 2 naming the
// flag, before any corpus is generated or imported and before any
// listener opens. A daemon that took the value would serve until
// killed, so each run has a deadline, and the daemons get an ephemeral
// port.
func TestCommandsRefuseHostileNumbers(t *testing.T) {
	bin := commandBins(t)
	inDir, outDir := t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(inDir, "a.txt"), []byte("the quick brown fox\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cmd, flag, value string
	}{
		{"serve", "-drain", "NaN"},
		{"serve", "-timeout", "-1"},
		{"serve", "-scale", "Inf"},
		{"worker", "-drain", "Inf"},
		{"worker", "-drain", "1e300"},
		{"worker", "-scale", "-1"},
		{"pipeline", "-deadline", "NaN"},
		{"pipeline", "-deadline", "1e300"},
		{"pipeline", "-deadline", "-1"},
		{"pipeline", "-deadline", "0"},
		{"pipeline", "-workers", "-2"},
		{"pipeline", "-max-attempts", "-1"},
		{"pipeline", "-scale", "NaN"},
		{"pipeline", "-scale", "0"},
		{"corpusgen", "-scale", "NaN"},
		{"corpusgen", "-scale", "-1"},
		{"corpusgen", "-scale", "Inf"},
		{"corpusgen", "-scale", "1e9"}, // metadata only: nothing but corpus.MaxFiles bounds it
		{"corpusgen", "-scale", "4e9"}, // with -out, where making the name list panicked
		{"provision", "-deadline", "0"},
		{"provision", "-deadline", "NaN"},
		{"provision", "-volume", "1e18"}, // with -unit 1: one item per byte
		{"serve", "-inflight", "-1"},
		{"serve", "-queue", "-1"},
		{"serve", "-scan-workers", "-1"},
		{"reshape", "-unit", "-1"},
		{"reshape", "-unit", "0"},
		{"reshape", "-shard", "-1"},
		{"reshape", "-workers", "-3"},
	} {
		args := []string{tc.flag, tc.value}
		switch tc.cmd {
		case "serve", "worker":
			args = append([]string{"-addr", "127.0.0.1:0"}, args...)
		case "reshape":
			args = append([]string{"-in", inDir, "-out", outDir, "-pack"}, args...)
		case "corpusgen":
			if tc.value == "4e9" {
				args = append(args, "-out", outDir)
			}
		case "provision":
			args = append(args, "-unit", "1")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, bin+tc.cmd, args...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s %s: %v, want exit code 2\n%s", tc.cmd, tc.flag, tc.value, err, out)
			continue
		}
		if s := string(out); !strings.Contains(s, tc.flag) || strings.Contains(s, "listening on") ||
			strings.Contains(s, "corpus:") || strings.Contains(s, "input:") ||
			strings.Contains(s, "panic") || strings.Contains(s, "goroutine") {
			t.Errorf("%s %s %s: want one usage error naming %s, no corpus and no listener, got\n%s", tc.cmd, tc.flag, tc.value, tc.flag, s)
		}
	}
}

// TestCommandsEndToEnd drives the built commands the way an operator
// would: run the whole pipeline (probe, fit, plan, execute) for each
// application and hold its report to a golden; generate and pack a
// corpus; serve it and read every endpoint's typed answer; measure it
// single-node, on two in-process workers and on two worker daemons over
// HTTP, which must agree bit for bit with each other and with what the
// resident server counts; then SIGTERM each daemon and require the drain
// line and exit code 130.
func TestCommandsEndToEnd(t *testing.T) {
	bin := commandBins(t)
	for name, args := range map[string][]string{
		"pipeline-grep-html":        {"-app", "grep", "-spec", "html", "-scale", "0.002", "-deadline", "3600"},
		"pipeline-pos-text":         {"-app", "pos", "-spec", "text", "-scale", "0.002", "-deadline", "120"},
		"pipeline-pos-text-measure": {"-app", "pos", "-spec", "text", "-scale", "0.002", "-measure", "-deadline", "120"},
	} {
		out, err := exec.Command(bin+"pipeline", args...).Output()
		if err != nil {
			t.Fatalf("pipeline %v: %v", args, err)
		}
		matchGolden(t, name, out)
	}

	work := t.TempDir()
	corpusDir, packs := filepath.Join(work, "corpus"), filepath.Join(work, "packs")
	runCommand(t, bin+"corpusgen", "-spec", "text", "-scale", "0.0005", "-out", corpusDir)
	// Small units and shards, so the plan has several tasks to hand out.
	runCommand(t, bin+"reshape", "-in", corpusDir, "-pack", "-out", packs, "-unit", "16384", "-shard", "32768")

	flags := []string{"-packs", packs, "-measure", "-measure-only", "-grep", "the,and"}
	local := runPipeline(t, bin+"pipeline", flags...)
	if local.files == 0 || local.tasks < 3 || len(local.totals) != 2 || local.totals[0] == 0 {
		t.Fatalf("single-node run measured nothing worth comparing:\n%s", local.out)
	}

	// The resident server over the same shards.
	srv := startDaemon(t, bin+"serve", "-packs", packs, "-addr", "127.0.0.1:0")
	base := "http://" + srv.addr
	var grep server.GrepResponse
	call(t, "POST", base+"/v1/grep", `{"patterns":["the","and"]}`, &grep)
	if grep.Files != local.files || !reflect.DeepEqual(grep.Totals, local.totals) || grep.Matches != local.totals[0]+local.totals[1] {
		t.Errorf("serve grep = %d files, totals %v, matches %d; pipeline counted %d files, %v", grep.Files, grep.Totals, grep.Matches, local.files, local.totals)
	}
	var meas server.MeasureResponse
	call(t, "POST", base+"/v1/measure", `{"complexity":true,"patterns":["the","and"]}`, &meas)
	if meas.Files != local.files || meas.Tokens == 0 || meas.ComplexityMean <= 0 || !reflect.DeepEqual(meas.Totals, local.totals) {
		t.Errorf("serve measure = %+v; pipeline counted %d files, %v", meas, local.files, local.totals)
	}
	var manifest server.ManifestResponse
	call(t, "GET", base+"/v1/manifest", "", &manifest)
	if manifest.Files != local.files || len(manifest.Entries) != local.files || len(manifest.Fingerprint) != 16 || manifest.Shards < 2 {
		t.Errorf("serve manifest: %d files, %d entries, %d shards, fingerprint %q", manifest.Files, len(manifest.Entries), manifest.Shards, manifest.Fingerprint)
	}
	var stats server.StatsResponse
	call(t, "GET", base+"/v1/stats", "", &stats)
	if stats.Tokens != meas.Tokens || stats.Lines != meas.Lines {
		t.Errorf("serve stats %+v disagree with measure %+v", stats, meas)
	}
	var snap server.Snapshot
	call(t, "GET", base+"/metrics", "", &snap)
	if snap.Endpoints["grep"].Requests != 1 || snap.Endpoints["measure"].Requests != 1 || snap.QueueDepth != 0 {
		t.Errorf("serve metrics after one grep and one measure: %+v", snap)
	}
	srv.terminate(t)
	if want := "serve: drained (2 requests served, 0 cancelled, 0 refused)"; !strings.Contains(srv.stderr.String(), want) {
		t.Errorf("serve drain summary: want %q in\n%s", want, srv.stderr.String())
	}

	// Two fleets at once is a usage error, not a silent choice of one.
	if out := failCommand(t, bin+"pipeline", 2, append(flags, "-workers", "2", "-worker-addrs", "127.0.0.1:1")...); !strings.Contains(out, "-workers and -worker-addrs") {
		t.Errorf("refusal of -workers with -worker-addrs does not name the pair:\n%s", out)
	}

	// The same measurement through the coordinator, in process and over HTTP.
	inproc := runPipeline(t, bin+"pipeline", append(flags, "-workers", "2")...)
	w0 := startDaemon(t, bin+"worker", "-packs", packs, "-addr", "127.0.0.1:0", "-name", "w0")
	w1 := startDaemon(t, bin+"worker", "-packs", packs, "-addr", "127.0.0.1:0", "-name", "w1")
	fleet := runPipeline(t, bin+"pipeline", append(flags, "-worker-addrs", w0.addr+","+w1.addr)...)
	for name, m := range map[string]measured{"-workers 2": inproc, "two HTTP workers": fleet} {
		if m.fingerprint != local.fingerprint || m.tasks != local.tasks || !reflect.DeepEqual(m.totals, local.totals) {
			t.Errorf("%s: fingerprint %s, %d tasks, totals %v; single-node %s, %d, %v\n%s",
				name, m.fingerprint, m.tasks, m.totals, local.fingerprint, local.tasks, local.totals, m.out)
		}
	}
	for _, w := range []*daemon{w0, w1} {
		if !strings.Contains(fleet.out, fmt.Sprintf("worker http://%s: ", w.addr)) {
			t.Errorf("no tally line for the worker at %s:\n%s", w.addr, fleet.out)
		}
		w.terminate(t)
	}
}
