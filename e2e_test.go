package repro

import (
	"bufio"
	"bytes"
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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cli"
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

// commandBins builds corpusgen, reshape, pipeline, provision, serve, worker and every
// example once per test binary and returns the directory prefix to run them
// from. The build carries -race exactly when this test binary does, so `go
// test ./...` stays quick and `make verify` keeps the detector on in the
// children too.
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
			"./cmd/corpusgen", "./cmd/reshape", "./cmd/pipeline", "./cmd/provision", "./cmd/serve", "./cmd/worker")
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

// TestExamplesRun runs every example to completion. The API guard counts
// an example as a production caller, so an example that only builds would
// keep an API alive without exercising it: each must exit 0 and print
// something.
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

// TestCommandsEndToEnd drives the built commands the way an operator
// would: generate and pack a corpus; serve it and read every endpoint's
// typed answer; measure it single-node, on two in-process workers and on
// two worker daemons over HTTP, which must agree bit for bit with each
// other and with what the resident server counts; then SIGTERM each
// daemon and require the drain line and exit code 130.
func TestCommandsEndToEnd(t *testing.T) {
	bin := commandBins(t)
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
