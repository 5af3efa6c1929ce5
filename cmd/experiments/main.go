// Command experiments regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	experiments -run all            # every experiment, in paper order
//	experiments -run fig6           # one experiment
//	experiments -list               # available experiment IDs
//	experiments -run fig4 -seed 7 -scale 2
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	var (
		runID  = flag.String("run", "all", "experiment ID to run, or 'all'")
		seed   = flag.Int64("seed", 2011, "root random seed")
		scale  = flag.Float64("scale", 1.0, "dataset scale multiplier")
		list   = flag.Bool("list", false, "list experiment IDs and exit")
		csvDir = flag.String("csv", "", "also write each report as CSV under this directory")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-12s %s\n", e.ID, e.Paper)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale}
	emit := func(rep *experiments.Report) {
		fmt.Println(rep)
		if *csvDir != "" {
			if err := experiments.WriteCSV(rep, *csvDir); err != nil {
				fmt.Fprintln(os.Stderr, "csv:", err)
				os.Exit(1)
			}
		}
	}
	if *runID == "all" {
		reports, err := experiments.RunAllCtx(ctx, cfg)
		for _, rep := range reports {
			emit(rep)
		}
		if err != nil {
			cli.Fatal("experiments", err)
		}
		return
	}
	driver, ok := experiments.Lookup(*runID)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *runID)
		os.Exit(2)
	}
	rep, err := driver(ctx, cfg)
	if err != nil {
		cli.Fatal("experiments", err)
	}
	emit(rep)
}
