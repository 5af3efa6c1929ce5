// Command serve runs the resident corpus service: a long-running HTTP
// daemon that opens pack shards once (memory-mapped), keeps them hot, and
// exposes the library's scan surface — multi-pattern grep, the fused
// measurement scan, checksum verification, manifest and stats — as
// concurrent JSON endpoints with admission control and request-scoped
// metrics. One-shot CLI runs re-pay startup, pack opening and page-cache
// warm-up per measurement; the server pays them once.
//
// Usage:
//
//	serve -packs ./packed                       # mapped pack shards (zero-copy scans)
//	serve -dir ./corpus                         # plain directory
//	serve -spec text -scale 0.001               # synthetic corpus, eagerly generated
//	serve -addr 127.0.0.1:0 -inflight 4 -queue 64 -timeout 30 -drain 10
//
// Endpoints: POST /v1/grep, POST /v1/measure, POST /v1/verify,
// GET /v1/manifest, GET /v1/stats, GET /healthz, GET /metrics.
//
// Shutdown: SIGINT/SIGTERM (via the shared cli.SignalContext root — serve
// installs no handlers of its own) stops admission, drains in-flight
// requests under -drain seconds, hard-cancels whatever remains, and exits
// 130 like every other command interrupted by a signal.
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
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/vfs"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		packs    = flag.String("packs", "", "serve a packed corpus: comma-separated pack files and/or directories of *.pack shards (memory-mapped, zero-copy scans)")
		dir      = flag.String("dir", "", "serve a real directory")
		specName = flag.String("spec", "text", "synthetic corpus: html or text (without -packs/-dir)")
		scale    = flag.Float64("scale", 0.001, "synthetic corpus scale")
		seed     = flag.Int64("seed", 2011, "synthetic corpus random seed")
		inflight = flag.Int("inflight", 4, "max concurrently running scan requests")
		queue    = flag.Int("queue", 64, "max requests waiting for a slot before 429")
		workers  = flag.Int("scan-workers", 0, "scan fan-out per request (0 = all CPUs)")
		timeout  = flag.Float64("timeout", 0, "default per-request timeout in seconds (0 = none; requests may set timeout_ms)")
		drain    = flag.Float64("drain", 10, "graceful-drain deadline in seconds after SIGINT/SIGTERM")
	)
	flag.Parse()

	var fs *vfs.FS
	var err error
	switch {
	case *packs != "":
		var closer interface{ Close() error }
		fs, closer, err = vfs.ImportPackMappedCtx(ctx, strings.Split(*packs, ",")...)
		if err == nil {
			defer closer.Close()
		}
	case *dir != "":
		// Raw views (shared slabs for small files, mappings for large
		// ones) give -dir corpora the same borrowed-window scan path as
		// mapped packs; hold them for the server's lifetime.
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
			fmt.Fprintf(os.Stderr, "serve: unknown spec %q (html or text)\n", *specName)
			os.Exit(2)
		}
		fs, err = corpus.GenerateWithContentEagerCtx(ctx, spec, *seed, 0)
	}
	if err != nil {
		fatal(err)
	}

	files := fs.List()
	srcs := scan.SequentialOrder(vfs.Sources(files))
	srv, err := server.New(ctx, srcs, server.Config{
		MaxInFlight:    *inflight,
		QueueDepth:     *queue,
		ScanWorkers:    *workers,
		DefaultTimeout: time.Duration(*timeout * float64(time.Second)),
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Printf("serve: listening on http://%s (%d files, %d bytes, inflight %d, queue %d)\n",
		ln.Addr(), fs.Len(), fs.TotalSize(), *inflight, *queue)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died on its own; nothing to drain.
		fatal(err)
	case <-ctx.Done():
	}

	// Signal received: release the registration so a second signal kills
	// immediately, then drain — stop admitting, let in-flight requests
	// finish under the deadline, hard-cancel the stragglers.
	stop()
	fmt.Fprintf(os.Stderr, "serve: signal received, draining (deadline %.0fs)\n", *drain)
	srv.StartDrain()
	dctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drain*float64(time.Second)))
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "serve: drain deadline exceeded, cancelling in-flight requests\n")
		srv.HardStop()
		httpSrv.Close()
	}
	snap := srv.Metrics().Snapshot()
	var requests, cancels int64
	for _, ep := range snap.Endpoints {
		requests += ep.Requests
		cancels += ep.Cancels
	}
	fmt.Fprintf(os.Stderr, "serve: drained (%d requests served, %d cancelled, %d refused)\n",
		requests, cancels, snap.Rejected429+snap.Rejected503)
	os.Exit(cli.ExitCodeCancelled)
}

func fatal(err error) {
	cli.Fatal("serve", err)
}
