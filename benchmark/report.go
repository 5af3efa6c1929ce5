package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// report is what -workload all writes and -compare reads: every value
// of every metric, run by run, so medians and quartiles can be taken
// again by whoever compares.
type report struct {
	Env       env                        `json:"env"`
	Seeds     []int64                    `json:"seeds"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
}

// runAll runs every workload, untraced then traced, once per seed. Each
// run is a fresh process (this binary again), so heap, mappings and
// peak RSS belong to one workload.
func runAll(ctx context.Context, spec *benchSpec, seed int64, runs int, seconds float64, quick bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := &report{Env: envOf(filepath.Join(spec.root, ".bench_build")), Seconds: seconds, Workloads: map[string]*workloadReport{}}
	for _, w := range workloadNames {
		rep.Workloads[w] = &workloadReport{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
	}
	fmt.Fprintln(os.Stderr, rep.Env)
	failed := false
	for r := 0; r < runs; r++ {
		s := seed + int64(r)
		rep.Seeds = append(rep.Seeds, s)
		for _, w := range workloadNames {
			for trace := 0; trace <= 1; trace++ {
				args := []string{"-workload", w, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
				if quick {
					args = append(args, "-quick")
				}
				fmt.Fprintf(os.Stderr, "run %d/%d: %s\n", r+1, runs, strings.Join(args, " "))
				cmd := exec.CommandContext(ctx, self, args...)
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				runErr := cmd.Run()
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s trace=%d: %v\n%s", w, trace, runErr, stderr.String())
				}
				wr := rep.Workloads[w]
				dst := wr.EndToEnd
				if trace == 1 {
					dst = wr.PerLayer
				}
				for name, mv := range res.Metrics {
					dst[name] = append(dst[name], mv.Value)
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				if !res.Correct {
					failed = true
					fmt.Fprint(os.Stderr, stderr.String())
				}
			}
		}
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	printReport(os.Stdout, spec, rep)
	fmt.Printf("report written to %s\n", out)
	if failed {
		return fmt.Errorf("some ops failed the output oracle")
	}
	return nil
}

// printReport prints every metric of every workload by name, with its
// unit, median, quartiles and inter-quartile spread across the runs.
func printReport(w io.Writer, spec *benchSpec, rep *report) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range workloadNames {
		wr := rep.Workloads[name]
		fmt.Fprintf(tw, "\n%s\t(%d ops, %d failed, %d runs)\n", name, wr.Attempted, wr.Failed, len(rep.Seeds))
		fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tspread\tbound")
		row := func(m metricSpec, vals []float64) {
			q1, med, q3, rel := spread(vals)
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.1f%%\t%s\n", m.Name, m.Unit, med, q1, q3, rel*100, bound)
		}
		for _, m := range spec.EndToEnd {
			row(m, wr.EndToEnd[m.Name])
		}
		for _, m := range spec.PerLayer {
			row(m, wr.PerLayer[m.Name])
		}
	}
	tw.Flush()
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// verdict judges one (workload, end-to-end metric) pair: b against the
// base a. Where either side's own inter-quartile spread is wider than
// the bound the pair is unresolved — unless every run of b reads better
// than every run of a. Otherwise it is worse when b's median is worse
// than a's by more than the bound, and ok if not.
func verdict(m metricSpec, a, b []float64) (string, float64) {
	_, medA, _, spreadA := spread(a)
	_, medB, _, spreadB := spread(b)
	rel := (medB - medA) / medA
	worseBy := rel
	if m.Better == "higher" {
		worseBy = -rel
	}
	if max(spreadA, spreadB) > *m.Bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if m.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return "unresolved", rel
		}
		return "ok", rel
	}
	if worseBy > *m.Bound {
		return "worse", rel
	}
	return "ok", rel
}

// compareReports prints, per workload and end-to-end metric, both
// medians, B's difference relative to A, the bound, and the verdict.
// It reports whether any pair is worse.
func compareReports(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "A = %s (%d runs)\tB = %s (%d runs)\tdifferences are (B-A)/A\n", pathA, len(a.Seeds), pathB, len(b.Seeds))
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tdiff\tbound\tverdict")
	anyWorse := false
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s missing from a report", name)
		}
		if wb.Failed > wa.Failed {
			anyWorse = true
			fmt.Fprintf(tw, "%s\tfailed ops\tcount\t%d\t%d\t\tany increase\tworse\n", name, wa.Failed, wb.Failed)
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s missing from a report", name, m.Name)
			}
			v, rel := verdict(m, va, vb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n",
				name, m.Name, m.Unit, median(va), median(vb), rel*100, *m.Bound*100, v)
		}
	}
	return anyWorse, tw.Flush()
}
