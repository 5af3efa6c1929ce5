package dist

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/fault"
	"repro/internal/scan"
	"repro/internal/vfs"
)

var matrixSeeds = flag.Int("matrix.seeds", 0, "run TestRecoveryMatrix with this many fault seeds per cell (0 skips it)")

// matrixSchedule is one row group of the recovery matrix: a fault spec,
// which the run's seed completes.
type matrixSchedule struct {
	name, spec string
	httpOnly   bool // transport faults: only an HTTP fleet has a transport
	deadPeer   bool // the fleet's last worker is dead: every scan and probe fails
}

type matrixFleetShape struct {
	name     string
	n        int
	overHTTP bool
}

// matrixAblation switches one recovery mechanism off through the
// package's seams; "all on" is the default Options.
type matrixAblation struct {
	name string
	opts Options
	down bool // every worker's probe fails, so a health trip is death
}

// TestRecoveryMatrix measures which recovery mechanism changes an
// outcome. Each fault schedule runs on each fleet (1, 2 and 4 Local
// workers, 2 HTTP workers behind httptest) with every mechanism on, then
// with each switched off in turn: retry in place, quarantine (the trip
// never fires) and re-admission (a trip is death). Each cell runs once
// per seed over an 800-file Text400K corpus in 61 tasks. The table
// gives how many runs succeeded, how many of those were bit-identical to
// the single-node scan (any other count fails the test), the makespan's
// p50 and IQR over all runs, and the attempts started per run. It takes
// minutes, so it runs only when asked: `make resilience-matrix`, or
// `go test -run TestRecoveryMatrix -v ./internal/dist -matrix.seeds=20`
// (a subtest pattern such as TestRecoveryMatrix/chaos/http-2/all_on
// runs one cell).
func TestRecoveryMatrix(t *testing.T) {
	if *matrixSeeds <= 0 {
		t.Skip("set -matrix.seeds to run the recovery matrix")
	}
	base, err := corpus.GenerateWithContentEagerCtx(context.Background(), corpus.Text400K(0.002), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Patterns: []string{"the", "and"}, Complexity: true}
	want, err := core.MeasurePlanCtx(context.Background(), matrixPlan(base), spec.MeasureOptions())
	if err != nil {
		t.Fatal(err)
	}

	schedules := []matrixSchedule{
		{name: "chaos", spec: "readerr=0.05,kill=0.05,latencyrate=0.1,latency=1ms"},
		{name: "readerr", spec: "readerr=0.05"},
		{name: "transport", spec: "http503=0.1,refuse=0.1,stall=0.05", httpOnly: true},
		// The live workers read slowly, as in TestChaosEndToEnd's
		// dead-peer leg, so the dead one has time to fail tasks.
		{name: "dead-peer", spec: "latencyrate=1,latency=1ms", deadPeer: true},
		{name: "readerr=1", spec: "readerr=1"},
		{name: "kill=1", spec: "kill=1"},
	}
	fleets := []matrixFleetShape{{"local-1", 1, false}, {"local-2", 2, false}, {"local-4", 4, false}, {"http-2", 2, true}}
	ablations := []matrixAblation{
		{name: "all on"},
		{name: "no retry in place", opts: Options{retry: retryPolicy{MaxAttempts: 1}}},
		{name: "no quarantine", opts: Options{health: healthOptions{TripAfter: 1 << 30}}},
		{name: "trip is death", down: true},
	}

	rows := []string{fmt.Sprintf("%-10s %-8s %-18s %7s %9s %9s %9s %9s", "schedule", "fleet", "mechanism off", "success", "identical", "p50 ms", "IQR ms", "attempts")}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			for _, fl := range fleets {
				if sc.httpOnly && !fl.overHTTP || sc.deadPeer && fl.n < 2 {
					continue
				}
				t.Run(fl.name, func(t *testing.T) {
					for _, ab := range ablations {
						t.Run(ab.name, func(t *testing.T) {
							rows = append(rows, matrixCell(t, base, want, spec, sc, fl, ab))
						})
					}
				})
			}
		})
	}
	t.Logf("recovery matrix, %d seeds a cell:\n%s", *matrixSeeds, strings.Join(rows, "\n"))
}

// matrixCell runs one cell of the matrix once per seed and returns its
// table row.
func matrixCell(t *testing.T, base *vfs.FS, want *core.Measurement, spec Spec, sc matrixSchedule, fl matrixFleetShape, ab matrixAblation) string {
	var ok, identical, attempts int
	walls := make([]time.Duration, 0, *matrixSeeds)
	for seed := 1; seed <= *matrixSeeds; seed++ {
		cfg, err := fault.ParseSpec(fmt.Sprintf("seed=%d,%s", seed, sc.spec))
		if err != nil {
			t.Fatal(err)
		}
		inj, err := fault.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := inj.WrapFS(base)
		if err != nil {
			t.Fatal(err)
		}
		plan := matrixPlan(fs)
		fleet, closeFleet := matrixFleet(t, plan, spec, inj, fl, sc.deadPeer)
		if ab.down {
			for i, w := range fleet {
				fleet[i] = downWorker{w}
			}
		}
		begin := time.Now()
		m, rep, err := Measure(context.Background(), plan, spec, fleet, ab.opts)
		walls = append(walls, time.Since(begin))
		closeFleet()
		for _, s := range rep.Workers {
			attempts += s.Started
		}
		if err == nil {
			ok++
			if reflect.DeepEqual(m, want) {
				identical++
			}
		}
	}
	if identical != ok {
		t.Errorf("%d of %d successful runs differ from the single-node scan", ok-identical, ok)
	}
	slices.Sort(walls)
	n := len(walls)
	return fmt.Sprintf("%-10s %-8s %-18s %3d/%-3d %9d %9.1f %9.1f %9.1f", sc.name, fl.name, ab.name, ok, n, identical,
		ms(walls[n/2]), ms(walls[3*n/4]-walls[n/4]), float64(attempts)/float64(n))
}

// matrixPlan splits the corpus into 32 KiB tasks: 61 for the matrix's.
func matrixPlan(fs *vfs.FS) *scan.Plan {
	return scan.NewPlan(fs.List(), scan.PlanOptions{TaskBytes: 32 << 10})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// matrixFleet builds n workers over the plan — in-process, or
// WorkerServers behind httptest with clients whose transport carries the
// injector's HTTP faults — with the injector's task kills installed.
// With deadPeer the last one is replaced by a worker whose every scan
// and probe fails: a Local that always errs, or an address nothing
// listens on.
func matrixFleet(t *testing.T, plan *scan.Plan, spec Spec, inj *fault.Injector, fl matrixFleetShape, deadPeer bool) ([]Worker, func()) {
	t.Helper()
	hc := &http.Client{Transport: inj.Transport(nil)}
	var servers []*httptest.Server
	n, overHTTP := fl.n, fl.overHTTP
	fleet := make([]Worker, n)
	for i := range fleet {
		name := fmt.Sprintf("w%d", i)
		switch {
		case deadPeer && i == n-1 && overHTTP:
			fleet[i] = NewHTTPWorkerClient(name, "http://127.0.0.1:1", hc)
		case deadPeer && i == n-1:
			l, err := NewLocal(name, plan, spec)
			if err != nil {
				t.Fatal(err)
			}
			l.SetFault(func(ctx context.Context, task int) error { return errs.Unavailable("dead peer") })
			fleet[i] = downWorker{l}
		case overHTTP:
			ws := NewWorkerServer(name, plan)
			ws.SetFault(inj.TaskKill(name))
			ts := httptest.NewServer(ws.Handler())
			servers = append(servers, ts)
			fleet[i] = NewHTTPWorkerClient(name, ts.URL, hc)
		default:
			l, err := NewLocal(name, plan, spec)
			if err != nil {
				t.Fatal(err)
			}
			l.SetFault(inj.TaskKill(name))
			fleet[i] = l
		}
	}
	return fleet, func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
}
