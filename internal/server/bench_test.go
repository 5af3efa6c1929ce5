package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/corpus"
	"repro/internal/scan"
	"repro/internal/vfs"
)

// BenchmarkServeRequest is one request of each kind the serve-mixed
// workload sends, through Handler().ServeHTTP with no network: a 1 000-file
// corpus.Text400K corpus exported as 2 MiB pack shards, imported
// memory-mapped, one server.New. grep is the eight-pattern set, measure
// asks for complexity. Run it with `make bench-serve`.
func BenchmarkServeRequest(b *testing.B) {
	ctx := context.Background()
	spec := corpus.Text400K(1)
	spec.NumFiles = 1000
	genFS, err := corpus.GenerateWithContentEagerCtx(ctx, spec, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := genFS.ExportPackCtx(ctx, dir, vfs.PackOptions{Prefix: "m", ShardSize: 2 << 20}); err != nil {
		b.Fatal(err)
	}
	mappedFS, closer, err := vfs.ImportPackMappedCtx(ctx, dir)
	if err != nil {
		b.Fatal(err)
	}
	defer closer.Close()
	srv, err := New(ctx, scan.SequentialOrder(vfs.Sources(mappedFS.List())), Config{MaxInFlight: 1, QueueDepth: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()

	eight := []string{"the", "and", "president", "market", "city", "nation", "report", "error"}
	for _, rc := range []struct {
		name, method, path, body string
	}{
		{"grep", http.MethodPost, "/v1/grep", mustJSON(GrepRequest{Patterns: eight})},
		{"measure", http.MethodPost, "/v1/measure", mustJSON(MeasureRequest{Complexity: true})},
		{"manifest", http.MethodGet, "/v1/manifest", ""},
		{"stats", http.MethodGet, "/v1/stats", ""},
	} {
		b.Run(rc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(rc.method, rc.path, bytes.NewReader([]byte(rc.body))))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", rc.name, rec.Code, rec.Body)
				}
			}
		})
	}
}
