// Package experiments regenerates every table and figure of the paper's
// evaluation (§3-§5), and an ablation of each of its design choices, on the
// simulated substrate. Each experiment is a named driver returning a
// Report: a rendered table plus named scalar Values that the test suite
// (and EXPERIMENTS.md) assert the paper's qualitative shape against — who
// wins, by what factor, where plateaus and crossovers fall.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/par"
)

// Config parameterises an experiment run.
type Config struct {
	// Seed drives all randomness; the default 2011 honours the paper.
	Seed int64
	// Scale multiplies dataset sizes: 1.0 is the default laptop-friendly
	// scale (each driver documents its own base size); larger values
	// approach the paper's full volumes at proportional runtime.
	Scale float64
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2011
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// Report is the outcome of one experiment.
type Report struct {
	ID    string
	Title string
	// Notes are free-form commentary lines (assumptions, calibration).
	Notes []string
	// Header and Rows form the experiment's table.
	Header []string
	Rows   [][]string
	// Values are named scalar results for programmatic assertions.
	Values map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Values: make(map[string]float64)}
}

func (r *Report) addRow(cols ...string) { r.Rows = append(r.Rows, cols) }

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as aligned text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "   %s\n", n)
	}
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cols []string) {
			for i, c := range cols {
				if i < len(widths) {
					fmt.Fprintf(&b, "  %-*s", widths[i], c)
				} else {
					fmt.Fprintf(&b, "  %s", c)
				}
			}
			b.WriteByte('\n')
		}
		line(r.Header)
		for _, row := range r.Rows {
			line(row)
		}
	}
	if len(r.Values) > 0 {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("  --\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-32s %.6g\n", k, r.Values[k])
		}
	}
	return b.String()
}

// Driver is an experiment entry point.
type Driver func(context.Context, Config) (*Report, error)

// Registry maps experiment IDs to drivers, in the paper's order, ablations last.
var Registry = []struct {
	ID     string
	Paper  string
	Driver Driver
}{
	{"fig1a", "Fig. 1(a): HTML_18mil size distribution", Fig1a},
	{"fig1b", "Fig. 1(b): Text_400K size distribution", Fig1b},
	{"fig2", "Fig. 2: power-law shapes and provisioning strategy", Fig2},
	{"fig3", "Fig. 3: grep on a 1 MB volume (unstable)", Fig3},
	{"fig4", "Fig. 4: grep on a 5 GB volume (plateau)", Fig4},
	{"fig5", "Fig. 5: grep on 1/2/10 GB volumes (EBS spikes)", Fig5},
	{"eq12", "Eqs. (1)-(2): grep linear fits", Eq12},
	{"fig6", "Fig. 6: grep on 100 GB (prediction vs actual, 5.6x)", Fig6},
	{"fig7", "Fig. 7: POS tagging on a 1000 kB volume", Fig7},
	{"eq34", "Eqs. (3)-(4): POS linear fits", Eq34},
	{"fig8a", "Fig. 8(a): POS D=1h, first-fit bins, model (3)", Fig8a},
	{"fig8b", "Fig. 8(b): POS D=1h, uniform bins, model (3)", Fig8b},
	{"fig8c", "Fig. 8(c): POS D=1h, refit model (4)", Fig8c},
	{"fig8d", "Fig. 8(d): POS adjusted D=3124, model (4)", Fig8d},
	{"fig9a", "Fig. 9(a): POS D=2h, uniform bins, model (3)", Fig9a},
	{"fig9b", "Fig. 9(b): POS D=2h, refit model (4)", Fig9b},
	{"fig9c", "Fig. 9(c): POS adjusted D=6247, model (4)", Fig9c},
	{"complexity", "§5.2: Dubliners vs Agnes Grey POS complexity", Complexity},
	{"switchcalc", "§3.1: switch-or-stay calculation", SwitchCalc},
	{"costfn", "§5: pricing function f(d)", CostFn},
	{"retrieval", "§1: output retrieval time vs segmentation", Retrieval},
	{"ablation-packing", "§4 ablation: subset-sum first-fit vs first-fit and FFD", AblationPacking},
	{"ablation-merge", "§4 ablation: merged probe family vs re-packing per unit", AblationMerge},
	{"ablation-qualification", "§4 ablation: deadline misses with and without qualification", AblationQualification},
	{"ablation-poswrapper", "ablation: POS batch wrapper vs one JVM per file", AblationPOSWrapper},
}

// Lookup finds a driver by ID.
func Lookup(id string) (Driver, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Driver, true
		}
	}
	return nil, false
}

// RunAllCtx executes every experiment concurrently and returns the
// reports in registry order. Drivers are independent by construction —
// each builds its own seeded cloud and corpus from cfg, sharing only
// read-only state — so the reports are identical to a serial run at any
// worker count. The error contract also matches the serial loop: on
// failure, the reports for the registry prefix before the first (by
// registry order) failing driver are returned alongside its error. No new
// driver starts once ctx is done, and the call returns the typed
// cancellation error.
func RunAllCtx(ctx context.Context, cfg Config) ([]*Report, error) {
	return RunAllWorkersCtx(ctx, cfg, 0)
}

// RunAllWorkersCtx is RunAllCtx with an explicit worker count (0 or
// negative means GOMAXPROCS); workers=1 is the serial reference. Driver
// failures keep the serial error contract (first failure in registry
// order, with the completed prefix); a cancellation with no driver
// failure returns the fan-out's typed cancellation error and no reports.
func RunAllWorkersCtx(ctx context.Context, cfg Config, workers int) ([]*Report, error) {
	reps := make([]*Report, len(Registry))
	errs := make([]error, len(Registry))
	ferr := par.New(workers).ForEachCtx(ctx, len(Registry), func(i int) error {
		reps[i], errs[i] = Registry[i].Driver(ctx, cfg)
		return nil
	})
	reports := make([]*Report, 0, len(Registry))
	for i, e := range Registry {
		if errs[i] != nil {
			return reports, fmt.Errorf("experiments: %s: %w", e.ID, errs[i])
		}
		reports = append(reports, reps[i])
	}
	if ferr != nil {
		return nil, ferr
	}
	return reports, nil
}

// Formatting helpers shared by drivers.

func fmtBytes(b int64) string {
	switch {
	case b >= 1_000_000_000:
		return fmt.Sprintf("%.3g GB", float64(b)/1e9)
	case b >= 1_000_000:
		return fmt.Sprintf("%.3g MB", float64(b)/1e6)
	case b >= 1_000:
		return fmt.Sprintf("%.3g kB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func fmtSecs(s float64) string {
	return fmt.Sprintf("%.2fs", s)
}
