package main

import (
	"context"
	"errors"

	"repro/internal/binpack"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/scan"
	"repro/internal/textproc"
	wlayer "repro/internal/workload" // the harness calls its own interface workload
)

// nullKernel does nothing per file or block, so a scan over it costs
// exactly what the engine itself costs: source delivery, the per-file
// fork, and the ordered merge frontier.
type nullKernel struct{}

func (nullKernel) Fork() scan.Kernel { return nullKernel{} }
func (nullKernel) Begin(scan.Source) {}
func (nullKernel) Block([]byte)      {}
func (nullKernel) End()              {}
func (nullKernel) Merge(scan.Kernel) {}

// probes measures layers in isolation, each as the median of reps:
//
//   - a kernel ladder over the very sources the workload's ops scan —
//     no-op kernel, checksum, then the match, stats and fused
//     stats+complexity kernels as increments over checksum — so a
//     kernel's cost is seen at this workload's file count, not in the
//     abstract;
//   - plan construction and kernel-state snapshot/restore over the same
//     sources (what the distributed engine ships per task);
//   - single-thread kernel throughput over one 1 MB block, automaton
//     and tagger construction, pool dispatch, and the reshaping
//     bin-pack over the corpus's real sizes.
func probes(ctx context.Context, w workload, members []memFile, reps int, out map[string]float64) error {
	srcs, closer, err := w.sources(ctx)
	if err != nil {
		return err
	}
	defer closer.Close()

	searcher, err := textproc.NewMultiSearcher(patterns)
	if err != nil {
		return err
	}
	tagger := textproc.NewTagger()
	pass := func(kernels ...func() scan.Kernel) (float64, error) {
		return timeReps(reps, func() error {
			ks := make([]scan.Kernel, len(kernels))
			for i, k := range kernels {
				ks[i] = k()
			}
			return scan.Run(ctx, srcs, scan.Options{}, ks...)
		})
	}
	null := func() scan.Kernel { return nullKernel{} }
	checksum := func() scan.Kernel { return scan.NewChecksum() }
	match := func() scan.Kernel { return textproc.NewMatchKernel(searcher) }
	stats := func() scan.Kernel { return textproc.NewStatsKernel() }
	fused := func() scan.Kernel { return wlayer.NewStatsComplexityKernel(tagger) }

	nullMS, err1 := pass(null)
	sumMS, err2 := pass(checksum)
	matchMS, err3 := pass(checksum, match)
	statsMS, err4 := pass(checksum, stats)
	fusedMS, err5 := pass(checksum, fused)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		return err
	}
	out["scan.null_pass_ms"] = nullMS
	out["scan.checksum_pass_ms"] = sumMS
	out["textproc.match_pass_ms"] = matchMS - sumMS
	out["textproc.stats_pass_ms"] = statsMS - sumMS
	out["workload.statscomplexity_pass_ms"] = fusedMS - sumMS

	if out["scan.newplan_ms"], err = timeReps(reps, func() error {
		scan.NewPlan(srcs, scan.PlanOptions{})
		return nil
	}); err != nil {
		return err
	}

	// Snapshot and restore a completed full kernel set: the state one
	// distributed task would put on the wire if it covered these sources.
	mk, err := core.NewMeasureKernels(core.MeasureOptions{Patterns: patterns, Complexity: true, Tagger: tagger})
	if err != nil {
		return err
	}
	if err := scan.Run(ctx, srcs, scan.Options{}, mk.List...); err != nil {
		return err
	}
	var states [][]byte
	if out["scan.snapshot_ms"], err = timeReps(reps, func() error {
		states = states[:0]
		for _, k := range mk.List {
			st, err := scan.SnapshotKernel(k)
			if err != nil {
				return err
			}
			states = append(states, st)
		}
		return nil
	}); err != nil {
		return err
	}
	var stateBytes int
	for _, st := range states {
		stateBytes += len(st)
	}
	out["scan.state_bytes"] = float64(stateBytes)
	if out["scan.restore_ms"], err = timeReps(reps, func() error {
		for i, k := range mk.List {
			if err := scan.RestoreKernel(k.Fork(), states[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// One block, one thread: Begin/Block/End on a forked kernel.
	block := make([]byte, 0, 1e6)
	for _, m := range members {
		if len(block) == cap(block) {
			break
		}
		block = append(block, m.data[:min(len(m.data), cap(block)-len(block))]...)
	}
	mbps := func(proto func() scan.Kernel) (float64, error) {
		k := proto().Fork()
		t, err := timeReps(reps*3, func() error {
			k.Begin(scan.Source{Name: "block", Size: int64(len(block))})
			k.Block(block)
			k.End()
			return nil
		})
		return float64(len(block)) / 1e6 / (t / 1e3), err
	}
	for name, proto := range map[string]func() scan.Kernel{
		"scan.checksum_mbps":            checksum,
		"textproc.match_mbps":           match,
		"textproc.stats_mbps":           stats,
		"workload.statscomplexity_mbps": fused,
	} {
		if out[name], err = mbps(proto); err != nil {
			return err
		}
	}

	if out["textproc.searcher_build_ms"], err = timeReps(reps*3, func() error {
		_, err := textproc.NewMultiSearcher(patterns)
		return err
	}); err != nil {
		return err
	}
	if out["textproc.tagger_build_ms"], err = timeReps(reps, func() error {
		textproc.NewTagger()
		return nil
	}); err != nil {
		return err
	}

	const tasks = 10000
	dispatch, err := timeReps(reps*3, func() error {
		return par.New(0).ForEachCtx(ctx, tasks, func(int) error { return nil })
	})
	if err != nil {
		return err
	}
	out["par.dispatch_ns_per_task"] = dispatch * 1e6 / tasks

	items := make([]binpack.Item, len(members))
	for i, m := range members {
		items[i] = binpack.Item{ID: m.name, Size: int64(len(m.data))}
	}
	var bins []*binpack.Bin
	if out["binpack.subsetsum_ms"], err = timeReps(reps, func() error {
		bins, err = binpack.SubsetSumFirstFit(items, unitSize)
		return err
	}); err != nil {
		return err
	}
	st := binpack.Summarize(bins)
	out["binpack.bins"], out["binpack.mean_fill"] = float64(st.Bins), st.MeanFill

	stored, shards := w.packStats()
	out["packstore.stored_bytes_per_user_byte"] = float64(stored) / float64(w.inputBytes())
	out["packstore.shards"] = float64(shards)
	return nil
}
