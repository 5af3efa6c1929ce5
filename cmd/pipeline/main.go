// Command pipeline runs the paper's complete workflow end to end on a
// synthetic corpus or a real directory: qualify an instance, probe across
// unit file sizes, select the preferred unit, fit a performance model,
// reshape, plan for the deadline, and execute the plan on the simulated
// cloud.
//
// Usage:
//
//	pipeline -app pos -spec text -scale 0.002 -deadline 120
//	pipeline -app grep -dir ./corpus -deadline 3600
//	pipeline -app grep -packs ./packed -deadline 3600
//	pipeline -app grep -dir ./corpus -grep error,warning,fatal -measure
//	pipeline -app pos -spec text -scale 0.002 -measure
//	pipeline -packs ./packed -measure -measure-only -workers 4
//	pipeline -packs ./packed -measure -measure-only -worker-addrs 127.0.0.1:9101,127.0.0.1:9102
//
// -grep and -measure share one fused scan: every file is opened and
// streamed exactly once, feeding the checksum, multi-pattern match and
// analyzer (text stats; for -app pos also POS complexity) kernels per
// block.
//
// -workers N distributes that scan over N in-process workers through the
// coordinator–worker engine; -worker-addrs sends the tasks to remote
// worker daemons (cmd/worker) over HTTP instead. Either way the output
// is bit-identical to the single-node scan — the printed measurement
// fingerprint is the proof line scripts compare.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/scan"
	"repro/internal/vfs"
	"repro/internal/workload"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	var (
		src      = cli.CorpusFlags(flag.CommandLine, 0.002)
		appName  = flag.String("app", "grep", "application: grep or pos")
		deadline = flag.Float64("deadline", 3600, "deadline in seconds")
		execute  = flag.Bool("execute", true, "execute the plan on the simulated cloud")
		grepPats = flag.String("grep", "", "comma-separated literal patterns: count matches during the fused measurement scan")
		foldCase = flag.Bool("fold", false, "match -grep patterns ASCII case-insensitively")
		measure  = flag.Bool("measure", false, "fused single-pass scan of the corpus bytes (checksums + text stats; with -app pos also a per-file complexity profile that the run consumes)")
		workers  = flag.Int("workers", 0, "distribute the measurement scan over N in-process workers (0 = single-node scan)")
		wAddrs   = flag.String("worker-addrs", "", "distribute the measurement scan to remote worker daemons: comma-separated host:port list")
		onlyM    = flag.Bool("measure-only", false, "stop after the measurement scan (skip probing/planning/execution)")

		checkpoint = flag.String("checkpoint", "", "journal completed measurement tasks to this file (crash-safe checkpoint)")
		resume     = flag.Bool("resume", false, "resume from an existing -checkpoint journal, skipping tasks it already holds")
		allowPart  = flag.Bool("allow-partial", false, "degrade instead of failing when a task's data is corrupt: skip it and print a degraded-results manifest")
		maxAtt     = flag.Int("max-attempts", 0, "dispatch attempts per measurement task before the run fails (0 = default)")
	)
	src.FaultFlags(flag.CommandLine)
	flag.Parse()
	if _, err := cli.PositiveSeconds("deadline", *deadline); err != nil {
		fatal(err)
	}
	if _, err := cli.Count("workers", *workers, 0); err != nil {
		fatal(err)
	}
	if _, err := cli.Count("max-attempts", *maxAtt, 0); err != nil {
		fatal(err)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "pipeline: -resume needs -checkpoint")
		os.Exit(2)
	}
	if *workers > 0 && *wAddrs != "" {
		fmt.Fprintln(os.Stderr, "pipeline: -workers and -worker-addrs are two different fleets; give one")
		os.Exit(2)
	}
	// Checkpointing, resume and degradation live in the coordinator; give
	// them a coordinator even when no explicit fleet was requested.
	if (*checkpoint != "" || *allowPart) && *workers == 0 && *wAddrs == "" {
		*workers = 1
	}

	var app workload.App
	switch *appName {
	case "grep":
		app = workload.NewGrep()
	case "pos":
		app = workload.NewPOS()
	default:
		fmt.Fprintf(os.Stderr, "pipeline: unknown app %q (grep or pos)\n", *appName)
		os.Exit(2)
	}

	fs, closer, inj, err := src.Open(ctx, cli.ScanOnce)
	if err != nil {
		fatal(err)
	}
	defer closer.Close()
	fmt.Printf("corpus: %d files, %d bytes\n", fs.Len(), fs.TotalSize())
	if inj != nil {
		fmt.Printf("fault injection armed: %s\n", src.FaultSpec())
	}

	// One fused scan serves every requested measurement: checksums, text
	// stats, multi-pattern grep and the POS complexity profile all ride the
	// same single read of each file (packed corpora shard-sequentially).
	var complexity []float64
	if *grepPats != "" || *measure {
		spec := dist.Spec{FoldCase: *foldCase, Complexity: *measure && *appName == "pos"}
		if *grepPats != "" {
			spec.Patterns = strings.Split(*grepPats, ",")
		}
		plan := scan.NewPlan(fs.List(), scan.PlanOptions{})

		opts := dist.Options{
			MaxAttempts:  *maxAtt,
			AllowPartial: *allowPart,
		}
		if *checkpoint != "" {
			var j *dist.Journal
			var jerr error
			if *resume {
				j, jerr = dist.OpenJournal(*checkpoint, plan.Fingerprint(), spec)
			} else {
				j, jerr = dist.CreateJournal(*checkpoint, plan.Fingerprint(), spec)
			}
			if jerr != nil {
				fatal(jerr)
			}
			defer j.Close()
			opts.Journal = j
		}

		var m *core.Measurement
		var err error
		switch {
		case *wAddrs != "":
			// Remote workers scan their own corpus views; the plan
			// fingerprint preflight catches any divergence. An armed
			// injector perturbs the HTTP transport, not the remote daemons
			// (give those their own -fault).
			hc := &http.Client{}
			if inj != nil {
				hc.Transport = inj.Transport(nil)
			}
			var fleet []dist.Worker
			for _, a := range strings.Split(*wAddrs, ",") {
				a = strings.TrimSpace(a)
				if !strings.Contains(a, "://") {
					a = "http://" + a
				}
				fleet = append(fleet, dist.NewHTTPWorkerClient(a, a, hc))
			}
			m, err = distMeasure(ctx, plan, spec, fleet, opts)
		case *workers > 0:
			var fleet []dist.Worker
			for i := 0; i < *workers; i++ {
				name := fmt.Sprintf("w%d", i)
				l, lerr := dist.NewLocal(name, plan, spec)
				if lerr != nil {
					fatal(lerr)
				}
				if inj != nil {
					l.SetFault(inj.TaskKill(name))
				}
				fleet = append(fleet, l)
			}
			m, err = distMeasure(ctx, plan, spec, fleet, opts)
		default:
			m, err = core.MeasurePlanCtx(ctx, plan, spec.MeasureOptions())
		}
		if inj != nil {
			fmt.Printf("fault injection: %s\n", inj.Summary())
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("measured (one fused pass): %d tokens, %d words, %d sentences, %d lines, mean sentence %.1f words\n",
			m.Stats.Tokens, m.Stats.Words, m.Stats.Sentences, m.Lines, m.Stats.MeanSentence)
		fmt.Printf("measurement fingerprint: %016x (plan %016x, %d files, %d tasks)\n",
			m.Fingerprint(), plan.Fingerprint(), len(plan.Sources), len(plan.Tasks))
		for i, pat := range m.Patterns {
			fmt.Printf("  pattern %q: %d matches\n", pat, m.PatternTotals[i])
		}
		if m.Complexity != nil {
			var mean float64
			for _, c := range m.Complexity {
				mean += c
			}
			fmt.Printf("  POS complexity profile: %d files, mean %.3f\n",
				len(m.Complexity), mean/float64(len(m.Complexity)))
			// In corpus order; a file a degraded run skipped is priced at 1.
			complexity = make([]float64, fs.Len())
			for i, f := range fs.List() {
				complexity[i] = m.Complexity[f.Name]
			}
		}
	}
	if *onlyM {
		return
	}

	// Scale the probe protocol to the corpus: escalate from ~1/100 of the
	// volume, cap at the corpus size.
	initial := fs.TotalSize() / 100
	if initial < 100_000 {
		initial = 100_000
	}
	s0 := pickS0(fs.List())
	if s0*5 > fs.TotalSize() {
		fmt.Printf("note: base unit %d bytes is large relative to the corpus; the unit-size sweep will be coarse\n", s0)
	}
	p, err := core.New(core.Config{
		Seed:            src.Seed(),
		App:             app,
		DeadlineSeconds: *deadline,
		InitialVolume:   initial,
		MaxVolume:       fs.TotalSize(),
		S0:              s0,
		Multiples:       []int{10, 100},
	})
	if err != nil {
		fatal(err)
	}
	var res *core.Result
	if complexity != nil {
		res, err = p.RunProfileCtx(ctx, &corpus.Profile{FS: fs, Complexity: complexity})
	} else {
		res, err = p.RunCtx(ctx, fs)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("qualified instance: %s after %d attempt(s)\n", res.Instance.ID, res.QualificationAttempts)
	if res.PreferredUnit == 0 {
		fmt.Println("preferred shape: original segmentation (merging buys nothing)")
	} else {
		fmt.Printf("preferred shape: %d-byte unit files (%d units from %d files)\n",
			res.PreferredUnit, len(res.ReshapedBins), fs.Len())
	}
	fmt.Printf("model: %v\n", res.Model)
	fmt.Printf("adjustment: %v\n", res.Adjustment)
	fmt.Printf("plan: %d instance(s), %.0f instance-hours, est. $%.3f (deadline %.0fs, planned %.0fs)\n",
		res.Plan.Instances, res.Plan.InstanceHours(), res.Plan.EstimatedCost,
		res.Plan.RequestedDeadline, res.Plan.Deadline)

	if !*execute {
		return
	}
	out, err := p.ExecuteCtx(ctx, res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("executed: makespan %.1fs, %d/%d missed, actual $%.3f\n",
		out.MakespanS, out.Missed, len(out.PerInstance), out.ActualCost)
}

// distMeasure runs the measurement through the coordinator–worker engine
// and reports the per-worker tallies, resume/retry totals and — when the
// run was allowed to degrade — the manifest of skipped tasks.
func distMeasure(ctx context.Context, plan *scan.Plan, spec dist.Spec, fleet []dist.Worker, opts dist.Options) (*core.Measurement, error) {
	m, rep, err := dist.Measure(ctx, plan, spec, fleet, opts)
	if rep == nil {
		return m, err
	}
	if rep.Resumed > 0 {
		fmt.Printf("  resumed %d task(s) from checkpoint\n", rep.Resumed)
	}
	if rep.MaxAttempt > 0 {
		fmt.Printf("  %.0f ms wall; successful task attempts took median %.1f ms, max %.1f ms\n",
			1e3*rep.Wall.Seconds(), 1e3*rep.MedianAttempt.Seconds(), 1e3*rep.MaxAttempt.Seconds())
	}
	for _, s := range rep.Workers {
		line := fmt.Sprintf("  worker %s: %d started, %d won, %d stolen", s.Name, s.Started, s.Won, s.Stolen)
		if s.Retries > 0 {
			line += fmt.Sprintf(", %d retried", s.Retries)
		}
		if s.Quarantined > 0 {
			line += fmt.Sprintf(", quarantined %d time(s)", s.Quarantined)
		}
		mb := float64(s.Bytes) / 1e6
		line += fmt.Sprintf(", busy %.0f ms, %.1f MB", 1e3*s.Busy.Seconds(), mb)
		if s.Busy > 0 {
			line += fmt.Sprintf(", %.0f MB/s", mb/s.Busy.Seconds())
		}
		if s.Dead {
			line += " (died; tasks re-dispatched)"
		}
		fmt.Println(line)
	}
	if rep.Degraded() {
		var files int
		var bytes int64
		for _, sk := range rep.Skipped {
			files += sk.Files
			bytes += sk.Bytes
		}
		fmt.Printf("  DEGRADED RESULT: %d task(s) skipped (%d files, %d bytes)\n", len(rep.Skipped), files, bytes)
		for _, sk := range rep.Skipped {
			fmt.Printf("    task %d shard %q (%d files, %d bytes): %s\n", sk.Task, sk.Shard, sk.Files, sk.Bytes, sk.Reason)
		}
	}
	return m, err
}

// pickS0 chooses a base probe unit comfortably above the largest file, as
// §4 prescribes, rounded to a power of ten.
func pickS0(files []vfs.File) int64 {
	var maxSize int64
	for i := range files {
		maxSize = max(maxSize, files[i].Size)
	}
	s0 := int64(10)
	for s0 <= maxSize {
		s0 *= 10
	}
	return s0
}

func fatal(err error) {
	cli.Fatal("pipeline", err)
}
