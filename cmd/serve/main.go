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
// Signals: SIGINT/SIGTERM stops admission, drains in-flight requests
// under -drain seconds, hard-cancels whatever remains, and exits 130 like
// every other command interrupted by a signal (cli.Daemon.Run, the loop
// cmd/worker shares).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/vfs"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	var (
		corpus   = cli.CorpusFlags(flag.CommandLine, 0.001)
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		inflight = flag.Int("inflight", 4, "max concurrently running scan requests")
		queue    = flag.Int("queue", 64, "max requests waiting for a slot before 429")
		workers  = flag.Int("scan-workers", 0, "scan fan-out per request (0 = all CPUs)")
		timeout  = flag.Float64("timeout", 0, "default per-request timeout in seconds (0 = none; requests may set timeout_ms)")
		drain    = flag.Float64("drain", 10, "graceful-drain deadline in seconds after SIGINT/SIGTERM")
	)
	flag.Parse()

	// The mappings (or slabs) stay open for the server's lifetime.
	fs, closer, _, err := corpus.Open(ctx, cli.Eager)
	if err != nil {
		fatal(err)
	}
	defer closer.Close()

	srv, err := server.New(ctx, scan.SequentialOrder(vfs.Sources(fs.List())), server.Config{
		MaxInFlight:    *inflight,
		QueueDepth:     *queue,
		ScanWorkers:    *workers,
		DefaultTimeout: seconds(*timeout),
	})
	if err != nil {
		fatal(err)
	}
	d, err := cli.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serve: listening on http://%s (%d files, %d bytes, inflight %d, queue %d)\n",
		d.Addr(), fs.Len(), fs.TotalSize(), *inflight, *queue)
	if err := d.Run(ctx, stop, "serve", srv.Handler(), seconds(*drain), drainer{srv}); err != nil {
		fatal(err)
	}
	os.Exit(cli.ExitCodeCancelled)
}

// drainer adds the drain's last line to the server's own StartDrain and
// HardStop.
type drainer struct{ *server.Server }

func (d drainer) DrainSummary() string {
	snap := d.Metrics().Snapshot()
	var requests, cancels int64
	for _, ep := range snap.Endpoints {
		requests += ep.Requests
		cancels += ep.Cancels
	}
	return fmt.Sprintf("%d requests served, %d cancelled, %d refused",
		requests, cancels, snap.Rejected429+snap.Rejected503)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func fatal(err error) {
	cli.Fatal("serve", err)
}
