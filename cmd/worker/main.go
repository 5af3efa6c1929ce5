// Command worker runs a distributed-scan worker daemon: it loads its
// local view of the corpus (memory-mapped pack shards, a directory, or a
// synthetic spec), derives the shared scan plan, and answers a
// coordinator's POST /v1/scan requests by executing one plan task at a
// time and returning its kernel states as one checksummed binary record
// (application/octet-stream; DESIGN.md §11 has the layout). The
// coordinator (pipeline -worker-addrs) verifies plan agreement by
// fingerprint before any work lands, so a worker pointed at the wrong
// corpus refuses loudly, and a coordinator that gives up on a request —
// the task was finished elsewhere first — closes the connection, which
// stops the scan behind it.
//
// Usage:
//
//	worker -packs ./packed -addr 127.0.0.1:9101
//	worker -dir ./corpus -addr 127.0.0.1:0
//	worker -spec text -scale 0.002 -seed 2011 -name w0
//
// Endpoints: POST /v1/scan, GET /healthz.
//
// Signals: SIGINT/SIGTERM drains in-flight scans under -drain seconds
// and exits 130, the repository-wide signal contract (cli.Daemon.Run, the
// loop cmd/serve shares).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/scan"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	var (
		corpus = cli.CorpusFlags(flag.CommandLine, 0.002)
		addr   = flag.String("addr", "127.0.0.1:9101", "listen address (use :0 for an ephemeral port)")
		name   = flag.String("name", "", "worker name in coordinator stats (default: the listen address)")
		drain  = flag.Float64("drain", 10, "graceful-drain deadline in seconds after SIGINT/SIGTERM")
	)
	corpus.FaultFlags(flag.CommandLine)
	flag.Parse()
	drainFor, err := cli.Seconds("drain", *drain)
	if err != nil {
		fatal(err)
	}

	// An armed injector has wrapped the corpus before the plan derivation;
	// names, sizes and locality are preserved, so the fingerprint handshake
	// with the coordinator still passes and only the bytes (and task
	// execution, via the kill hook below) misbehave.
	fs, closer, inj, err := corpus.Open(ctx, cli.Resident)
	if err != nil {
		fatal(err)
	}
	defer closer.Close()
	plan := scan.NewPlan(fs.List(), scan.PlanOptions{})

	d, err := cli.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	wname := *name
	if wname == "" {
		wname = d.Addr().String()
	}
	ws := dist.NewWorkerServer(wname, plan)
	if inj != nil {
		ws.SetFault(inj.TaskKill(wname))
		fmt.Printf("worker %s: fault injection armed: %s\n", wname, corpus.FaultSpec())
	}
	fmt.Printf("worker %s: listening on http://%s (%d files, %d bytes, %d tasks, plan %016x)\n",
		wname, d.Addr(), fs.Len(), fs.TotalSize(), len(plan.Tasks), plan.Fingerprint())
	if err := d.Run(ctx, stop, "worker "+wname, ws.Handler(), drainFor, nil); err != nil {
		fatal(err)
	}
	os.Exit(cli.ExitCodeCancelled)
}

func fatal(err error) {
	cli.Fatal("worker", err)
}
