// Command worker runs a distributed-scan worker daemon: it loads its
// local view of the corpus (memory-mapped pack shards, a directory, or a
// synthetic spec), derives the shared scan plan, and answers a
// coordinator's POST /v1/scan requests by executing one plan task at a
// time and returning its kernel states as one checksummed binary record
// (application/octet-stream; DESIGN.md §10 has the layout). The
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
// Shutdown: SIGINT/SIGTERM drains in-flight scans under -drain seconds
// and exits 130, the repository-wide signal contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/scan"
	"repro/internal/vfs"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	var (
		addr      = flag.String("addr", "127.0.0.1:9101", "listen address (use :0 for an ephemeral port)")
		name      = flag.String("name", "", "worker name in coordinator stats (default: the listen address)")
		packs     = flag.String("packs", "", "serve a packed corpus: comma-separated pack files and/or directories of *.pack shards (memory-mapped, zero-copy scans)")
		dir       = flag.String("dir", "", "serve a real directory")
		specName  = flag.String("spec", "text", "synthetic corpus: html or text (without -packs/-dir)")
		scale     = flag.Float64("scale", 0.002, "synthetic corpus scale")
		seed      = flag.Int64("seed", 2011, "synthetic corpus random seed")
		taskBytes = flag.Int64("task-bytes", 0, "task chunking cap for shard-less sources (0 = default; must match the coordinator)")
		drain     = flag.Float64("drain", 10, "graceful-drain deadline in seconds after SIGINT/SIGTERM")
		faultSpec = flag.String("fault", "", "seeded fault-injection spec, comma-separated key=value (e.g. seed=7,readerr=0.05,kill=0.1); see internal/fault")
		verifyR   = flag.Bool("verify-reads", false, "verify pack member checksums on every read (requires -packs)")
	)
	flag.Parse()
	if *verifyR && *packs == "" {
		fmt.Fprintln(os.Stderr, "worker: -verify-reads needs a packed corpus (-packs)")
		os.Exit(2)
	}

	var fs *vfs.FS
	var err error
	switch {
	case *packs != "":
		var closer interface{ Close() error }
		if *verifyR {
			fs, closer, err = vfs.ImportPackVerifiedCtx(ctx, strings.Split(*packs, ",")...)
		} else {
			fs, closer, err = vfs.ImportPackMappedCtx(ctx, strings.Split(*packs, ",")...)
		}
		if err == nil {
			defer closer.Close()
		}
	case *dir != "":
		// Raw views on every file (slab-loaded or mapped, by size) so
		// assigned-shard scans take the borrowed-window path, exactly
		// like the mapped-pack path above.
		var closer interface{ Close() error }
		fs, closer, err = vfs.ImportDirMappedCtx(ctx, *dir)
		if err == nil {
			defer closer.Close()
		}
	default:
		var spec corpus.Spec
		switch *specName {
		case "html":
			spec = corpus.HTML18Mil(*scale)
		case "text":
			spec = corpus.Text400K(*scale)
		default:
			fmt.Fprintf(os.Stderr, "worker: unknown spec %q (html or text)\n", *specName)
			os.Exit(2)
		}
		fs, err = corpus.GenerateWithContentEagerCtx(ctx, spec, *seed, 0)
	}
	if err != nil {
		fatal(err)
	}

	// Fault injection wraps the corpus before the plan derivation; WrapFS
	// preserves names, sizes and locality, so the fingerprint handshake
	// with the coordinator still passes and only the bytes (and task
	// execution, via the kill hook below) misbehave.
	var inj *fault.Injector
	if *faultSpec != "" {
		cfg, ferr := fault.ParseSpec(*faultSpec)
		if ferr != nil {
			fatal(ferr)
		}
		if cfg.Enabled() {
			if inj, err = fault.New(cfg); err != nil {
				fatal(err)
			}
			if fs, err = inj.WrapFS(fs); err != nil {
				fatal(err)
			}
		}
	}

	plan := scan.NewPlan(vfs.Sources(fs.List()), scan.PlanOptions{TaskBytes: *taskBytes})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	wname := *name
	if wname == "" {
		wname = ln.Addr().String()
	}
	ws := dist.NewWorkerServer(wname, plan)
	if inj != nil {
		ws.SetFault(inj.TaskKill(wname))
		fmt.Printf("worker %s: fault injection armed: %s\n", wname, *faultSpec)
	}
	// Request bodies are capped by the handler; the header timeout keeps
	// a peer that connects and says nothing from holding a connection.
	httpSrv := &http.Server{Handler: ws.Handler(), ReadHeaderTimeout: 10 * time.Second}
	fmt.Printf("worker %s: listening on http://%s (%d files, %d bytes, %d tasks, plan %016x)\n",
		wname, ln.Addr(), fs.Len(), fs.TotalSize(), len(plan.Tasks), plan.Fingerprint())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}

	// Signal received: release the registration so a second signal kills
	// immediately, then drain in-flight scans under the deadline.
	stop()
	fmt.Fprintf(os.Stderr, "worker %s: signal received, draining (deadline %.0fs)\n", wname, *drain)
	dctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drain*float64(time.Second)))
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "worker %s: drain deadline exceeded, closing\n", wname)
		httpSrv.Close()
	}
	fmt.Fprintf(os.Stderr, "worker %s: drained\n", wname)
	os.Exit(cli.ExitCodeCancelled)
}

func fatal(err error) {
	cli.Fatal("worker", err)
}
