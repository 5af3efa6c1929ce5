package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/binpack"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/packstore"
	"repro/internal/scan"
	"repro/internal/vfs"
)

// batch is a closed-loop workload: one caller, one op at a time.
//
// A run calls inputs (untimed), setup (timed into setup_s), oracle
// (untimed) and then op repeatedly. op times nothing itself: it brackets each call into a
// layer with a span and returns a check that verifies the op's outputs
// and cleans up after it, which the runner calls outside the timed
// interval.
type batch interface {
	// inputs writes under dir the files the ops take as given — the
	// unreshaped small-file tree. It is input generation, done once and
	// kept off the set-up clock: 12 000 file creates take anywhere from
	// 0.2 s to 4 s on the sandbox's disk.
	inputs(ctx context.Context, dir string, fs *vfs.FS) error
	// setup does what the program itself does before a first op:
	// reshape and pack under dir, import, start the fleet.
	setup(ctx context.Context, dir string, fs *vfs.FS) error
	// oracle computes the expected outputs from the generated members.
	oracle(ctx context.Context, members []memFile) error
	op(ctx context.Context, tr *tracer, root, id int) (check func() error, err error)
	// sources opens the source list the ops scan, for the kernel ladder.
	sources(ctx context.Context) ([]scan.Source, io.Closer, error)
	// packStats is the size on disk and shard count of the packs the
	// ops read or write (zeros if none).
	packStats() (stored int64, shards int)
	// inputBytes is the corpus bytes one op consumes.
	inputBytes() int64
	close() error
}

// dirPackStats sums the pack shards under dir.
func dirPackStats(dir string) (stored int64, shards int) {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.pack"))
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			stored += st.Size()
			shards++
		}
	}
	return stored, shards
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// noInputs is embedded by workloads whose ops read only what their own
// setup wrote.
type noInputs struct{}

func (noInputs) inputs(context.Context, string, *vfs.FS) error { return nil }

// grepSmallfiles is the paper's "before" state: the one-shot
// `pipeline -dir -grep` user on the unreshaped corpus. Every op pays
// one open+mmap+munmap and one Begin/End/merge step per small file.
type grepSmallfiles struct {
	plain string
	or    *oracle
}

func (w *grepSmallfiles) inputs(ctx context.Context, dir string, fs *vfs.FS) error {
	w.plain = filepath.Join(dir, "plain")
	return fs.ExportCtx(ctx, w.plain)
}

func (w *grepSmallfiles) setup(context.Context, string, *vfs.FS) error { return nil }

func (w *grepSmallfiles) oracle(ctx context.Context, members []memFile) (err error) {
	w.or, err = newOracle(ctx, members, false)
	return err
}

func (w *grepSmallfiles) op(ctx context.Context, tr *tracer, root, id int) (func() error, error) {
	before := tr.mallocs()
	sp := tr.begin("vfs.import_dirmapped", root, id)
	fs, closer, err := vfs.ImportDirMappedCtx(ctx, w.plain)
	tr.end(sp)
	tr.countAllocs("vfs.import_dirmapped_allocs", before)
	if err != nil {
		return nil, err
	}
	before = tr.mallocs()
	sp = tr.begin("core.measure", root, id)
	m, err := core.MeasureCtx(ctx, fs, core.MeasureOptions{Patterns: patterns})
	tr.end(sp)
	tr.countAllocs("core.measure_allocs", before)
	sp = tr.begin("vfs.close_dirmapped", root, id)
	cerr := closer.Close()
	tr.end(sp)
	if err = errors.Join(err, cerr); err != nil {
		return nil, err
	}
	return func() error { return w.or.checkMeasurement(m, false) }, nil
}

func (w *grepSmallfiles) sources(ctx context.Context) ([]scan.Source, io.Closer, error) {
	fs, closer, err := vfs.ImportDirMappedCtx(ctx, w.plain)
	if err != nil {
		return nil, nil, err
	}
	return vfs.Sources(fs.List()), closer, nil
}

func (w *grepSmallfiles) packStats() (int64, int) { return 0, 0 }
func (w *grepSmallfiles) inputBytes() int64       { return w.or.bytes }
func (w *grepSmallfiles) close() error            { return nil }

// posPacked is the paper's "after" state under the compute-bound
// application: the same bytes reshaped into ≈1 MiB units in a few pack
// shards, scanned with the POS-complexity analyzer. Import and close
// are two shard mmaps, so the kernels are nearly the whole op — the
// workload on which a per-file optimisation should change nothing.
type posPacked struct {
	noInputs
	units string
	bins  []*binpack.Bin
	or    *oracle
}

func (w *posPacked) setup(ctx context.Context, dir string, fs *vfs.FS) error {
	w.units = filepath.Join(dir, "units")
	merged, bins, err := core.ReshapeCtx(ctx, fs, unitSize, "unit")
	if err != nil {
		return err
	}
	w.bins = bins
	_, err = merged.ExportPackCtx(ctx, w.units, vfs.PackOptions{Prefix: "unit", ShardSize: unitShard})
	return err
}

func (w *posPacked) oracle(ctx context.Context, members []memFile) error {
	units, err := unitFiles(members, w.bins)
	if err != nil {
		return err
	}
	w.or, err = newOracle(ctx, units, true)
	return err
}

func (w *posPacked) op(ctx context.Context, tr *tracer, root, id int) (func() error, error) {
	sp := tr.begin("vfs.import_packmapped", root, id)
	fs, closer, err := vfs.ImportPackMappedCtx(ctx, w.units)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	before := tr.mallocs()
	sp = tr.begin("core.measure", root, id)
	m, err := core.MeasureCtx(ctx, fs, core.MeasureOptions{Patterns: patterns, Complexity: true})
	tr.end(sp)
	tr.countAllocs("core.measure_allocs", before)
	sp = tr.begin("vfs.close_packmapped", root, id)
	cerr := closer.Close()
	tr.end(sp)
	if err = errors.Join(err, cerr); err != nil {
		return nil, err
	}
	return func() error { return w.or.checkMeasurement(m, true) }, nil
}

func (w *posPacked) sources(ctx context.Context) ([]scan.Source, io.Closer, error) {
	fs, closer, err := vfs.ImportPackMappedCtx(ctx, w.units)
	if err != nil {
		return nil, nil, err
	}
	return scan.SequentialOrder(vfs.Sources(fs.List())), closer, nil
}

func (w *posPacked) packStats() (int64, int) { return dirPackStats(w.units) }
func (w *posPacked) inputBytes() int64       { return w.or.bytes }
func (w *posPacked) close() error            { return nil }

// reshapeExport is the write side of the layers the scans read — the
// `reshape -pack -verify` flow, and the paper's one-time reshaping cost.
// A pack-format, checksum or index change that speeds reads but costs
// writes (or the reverse) shows here.
type reshapeExport struct {
	dir, plain string
	seq        int
	members    []memFile
	bytes      int64
	stored     int64 // last op's output, sized before its removal
	shards     int
	// wantIDs and wantSums cache the expected units of the last bin
	// layout seen: reshaping is deterministic, so after the first op
	// the check is an ID comparison plus one hash of the output.
	wantIDs  [][]string
	wantSums map[string]uint64
}

func (w *reshapeExport) inputs(ctx context.Context, dir string, fs *vfs.FS) error {
	w.plain = filepath.Join(dir, "plain")
	return fs.ExportCtx(ctx, w.plain)
}

func (w *reshapeExport) setup(_ context.Context, dir string, _ *vfs.FS) error {
	w.dir = dir
	return os.MkdirAll(dir, 0o755)
}

func (w *reshapeExport) oracle(_ context.Context, members []memFile) error {
	w.members = members
	_, w.bytes = fnvSums(members)
	return nil
}

func (w *reshapeExport) op(ctx context.Context, tr *tracer, root, id int) (func() error, error) {
	w.seq++
	out := filepath.Join(w.dir, fmt.Sprintf("reshaped-%d", w.seq))
	cleanup := func() error { return os.RemoveAll(out) }

	sp := tr.begin("vfs.import_dir", root, id)
	in, err := vfs.ImportDir(w.plain)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.reshape", root, id)
	merged, bins, err := core.ReshapeCtx(ctx, in, unitSize, "unit")
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("vfs.export_pack", root, id)
	paths, err := merged.ExportPackCtx(ctx, out, vfs.PackOptions{Prefix: "unit", ShardSize: unitShard})
	tr.end(sp)
	if err != nil {
		return nil, errors.Join(err, cleanup())
	}
	sp = tr.begin("packstore.openset", root, id)
	set, err := packstore.OpenSet(paths...)
	tr.end(sp)
	if err != nil {
		return nil, errors.Join(err, cleanup())
	}
	sp = tr.begin("packstore.verify", root, id)
	err = set.VerifyCtx(ctx, 0)
	tr.end(sp)
	if err = errors.Join(err, set.Close()); err != nil {
		return nil, errors.Join(err, cleanup())
	}
	return func() error { return errors.Join(w.check(ctx, out, bins), cleanup()) }, nil
}

// check verifies byte conservation and that every unit read back from
// the packs is exactly its bin's members concatenated in item order.
func (w *reshapeExport) check(ctx context.Context, out string, bins []*binpack.Bin) error {
	ids := make([][]string, len(bins))
	seen := 0
	for i, b := range bins {
		ids[i] = make([]string, len(b.Items))
		for j, it := range b.Items {
			ids[i][j] = it.ID
		}
		seen += len(b.Items)
	}
	if seen != len(w.members) {
		return fmt.Errorf("reshape placed %d members, corpus has %d", seen, len(w.members))
	}
	w.stored, w.shards = dirPackStats(out)
	if !reflect.DeepEqual(ids, w.wantIDs) {
		units, err := unitFiles(w.members, bins)
		if err != nil {
			return err
		}
		var total int64
		w.wantSums, total = fnvSums(units)
		if total != w.bytes {
			return fmt.Errorf("reshape conserved %d of %d bytes", total, w.bytes)
		}
		w.wantIDs = ids
	}
	fs, closer, err := vfs.ImportPackCtx(ctx, out)
	if err != nil {
		return err
	}
	defer closer.Close()
	list := fs.List()
	if len(list) != len(w.wantSums) {
		return fmt.Errorf("re-imported %d units, want %d", len(list), len(w.wantSums))
	}
	for _, f := range list {
		data, err := f.ReadAll()
		if err != nil {
			return err
		}
		h := fnv.New64a()
		h.Write(data)
		if want, ok := w.wantSums[f.Name]; !ok || h.Sum64() != want {
			return fmt.Errorf("unit %s: bytes differ from its members' concatenation", f.Name)
		}
	}
	return nil
}

func (w *reshapeExport) sources(context.Context) ([]scan.Source, io.Closer, error) {
	fs, err := vfs.ImportDir(w.plain)
	if err != nil {
		return nil, nil, err
	}
	return vfs.Sources(fs.List()), nopCloser{}, nil
}

func (w *reshapeExport) packStats() (int64, int) { return w.stored, w.shards }
func (w *reshapeExport) inputBytes() int64       { return w.bytes }
func (w *reshapeExport) close() error            { return nil }

// distPacked drives the coordinator–worker engine over a resident fleet
// of two worker daemons on loopback. The corpus is 12 000 one-member
// pack entries — where per-file kernel state is largest — so the
// snapshot → JSON+base64 wire → restore → task-order fold path carries
// real weight: everything here beyond core.MeasurePlanCtx on the same
// plan is the distribution overhead ROADMAP calls unexplained.
type distPacked struct {
	noInputs
	members string
	closer  io.Closer
	plan    *scan.Plan
	spec    dist.Spec
	servers []*http.Server
	fleet   []dist.Worker
	traced  []*tracedWorker
	or      *oracle
	local   *core.Measurement
	last    *dist.Report
}

const fleetSize = 2

func (w *distPacked) setup(ctx context.Context, dir string, fs *vfs.FS) error {
	w.members = filepath.Join(dir, "members")
	if _, err := fs.ExportPackCtx(ctx, w.members, vfs.PackOptions{Prefix: "m", ShardSize: memberShard}); err != nil {
		return err
	}
	mfs, closer, err := vfs.ImportPackMappedCtx(ctx, w.members)
	if err != nil {
		return err
	}
	w.closer = closer
	w.plan = scan.NewPlan(vfs.Sources(mfs.List()), scan.PlanOptions{})
	w.spec = dist.Spec{Patterns: patterns, Complexity: true}
	w.servers, w.fleet, w.traced = nil, nil, nil
	for i := 0; i < fleetSize; i++ {
		name := fmt.Sprintf("w%d", i)
		srv, url, err := serveLoopback(dist.NewWorkerServer(name, w.plan).Handler())
		if err != nil {
			return err
		}
		w.servers = append(w.servers, srv)
		tw := &tracedWorker{HTTPWorker: dist.NewHTTPWorker(name, url)}
		w.traced = append(w.traced, tw)
		w.fleet = append(w.fleet, tw)
	}
	return nil
}

func (w *distPacked) oracle(ctx context.Context, members []memFile) (err error) {
	if w.or, err = newOracle(ctx, members, true); err != nil {
		return err
	}
	w.local, err = core.MeasurePlanCtx(ctx, w.plan, w.spec.MeasureOptions())
	return err
}

func (w *distPacked) op(ctx context.Context, tr *tracer, root, id int) (func() error, error) {
	sp := tr.begin("dist.measure", root, id)
	for _, tw := range w.traced {
		tw.attach(tr, sp, id)
	}
	m, rep, err := dist.Measure(ctx, w.plan, w.spec, w.fleet, dist.Options{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	w.last = rep
	return func() error {
		if !reflect.DeepEqual(m, w.local) {
			return errors.New("distributed measurement differs from core.MeasurePlanCtx on the same plan")
		}
		return w.or.checkMeasurement(m, true)
	}, nil
}

func (w *distPacked) sources(context.Context) ([]scan.Source, io.Closer, error) {
	return w.plan.Sources, nopCloser{}, nil
}

func (w *distPacked) packStats() (int64, int) { return dirPackStats(w.members) }
func (w *distPacked) inputBytes() int64       { return w.or.bytes }

func (w *distPacked) close() error {
	var err error
	for _, s := range w.servers {
		err = errors.Join(err, s.Close())
	}
	if w.closer != nil {
		err = errors.Join(err, w.closer.Close())
	}
	w.servers, w.closer = nil, nil
	return err
}

// tracedWorker decorates a fleet member so that every Scan the
// coordinator issues becomes a child span of the op that caused it.
// Embedding the concrete client keeps its Probe method visible to the
// coordinator's health gate.
type tracedWorker struct {
	*dist.HTTPWorker
	cur atomic.Pointer[spanCtx]
}

type spanCtx struct {
	tr         *tracer
	parent, op int
}

func (w *tracedWorker) attach(tr *tracer, parent, op int) {
	w.cur.Store(&spanCtx{tr, parent, op})
}

func (w *tracedWorker) Scan(ctx context.Context, req *dist.ScanRequest) (*dist.ScanResponse, error) {
	c := w.cur.Load()
	sp := c.tr.begin("dist.worker_scan", c.parent, c.op)
	resp, err := w.HTTPWorker.Scan(ctx, req)
	c.tr.end(sp)
	return resp, err
}

// serveLoopback starts a real net/http server for h on an ephemeral
// 127.0.0.1 port and returns it with its base URL.
func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) // returns when srv.Close closes the listener
	return srv, "http://" + ln.Addr().String(), nil
}

// fnvSums hashes every file with the standard library's FNV-64a.
func fnvSums(files []memFile) (map[string]uint64, int64) {
	sums := make(map[string]uint64, len(files))
	var total int64
	for _, f := range files {
		h := fnv.New64a()
		h.Write(f.data)
		sums[f.name] = h.Sum64()
		total += int64(len(f.data))
	}
	return sums, total
}

// layers places the distributed op against its two references on the
// same plan — the single-node scan and the same coordinator over two
// in-process workers — and reads the worker spans of the traced ops.
func (w *distPacked) layers(ctx context.Context, tm *timing, tr *tracer, reps int, out map[string]float64) error {
	local, err := timeReps(reps, func() error {
		_, err := core.MeasurePlanCtx(ctx, w.plan, w.spec.MeasureOptions())
		return err
	})
	if err != nil {
		return err
	}
	inproc := make([]dist.Worker, fleetSize)
	for i := range inproc {
		if inproc[i], err = dist.NewLocal(fmt.Sprintf("l%d", i), w.plan, w.spec); err != nil {
			return err
		}
	}
	inprocMS, err := timeReps(reps, func() error {
		_, _, err := dist.Measure(ctx, w.plan, w.spec, inproc, dist.Options{})
		return err
	})
	if err != nil {
		return err
	}
	p50 := median(tm.opMS)
	out["dist.local_ref_ms"] = local
	out["dist.inproc_ms"] = inprocMS
	out["dist.overhead_vs_local"] = p50 / local
	out["dist.wire_overhead_ms"] = p50 - inprocMS

	// Per traced op: the union of its worker scans is what the fleet
	// did; the rest of the op is the coordinator's own time.
	self := tr.selfTimes()
	scans := make(map[int]time.Duration) // op span id → summed scan time
	var scanMS, coordMS, busy []float64
	for _, s := range tr.spans {
		if s.Name == "dist.worker_scan" {
			scans[s.Parent] += s.dur()
			scanMS = append(scanMS, ms(s.dur()))
		}
	}
	for i, s := range tr.spans {
		if s.Name == "dist.measure" {
			coordMS = append(coordMS, ms(self[i]))
			busy = append(busy, float64(scans[i])/float64(fleetSize*s.dur()))
		}
	}
	out["dist.task_scan_ms_p50"] = median(scanMS)
	out["dist.coordinator_self_ms"] = median(coordMS)
	out["dist.worker_busy_ratio"] = median(busy)
	started := 0
	for _, ws := range w.last.Workers {
		started += ws.Started
	}
	out["dist.attempts_per_task"] = float64(started) / float64(len(w.plan.Tasks))
	out["dist.retries"] = float64(w.last.Retries)
	return nil
}
