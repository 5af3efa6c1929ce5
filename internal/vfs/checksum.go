package vfs

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/errs"
	"repro/internal/scan"
)

// Content integrity: reshaping must never corrupt data, and exported unit
// files must be provably identical to their sources. Checksums are
// FNV-64a — not cryptographic, but collision-safe enough for manifest
// verification and fully deterministic.
//
// The corpus-wide operations here are thin wrappers over the fused scan
// engine: BuildManifestCtx and Manifest.VerifyCtx run a checksum-only
// scan.Run, each file opened and streamed exactly once.

// Manifest maps file names to (size, checksum).
type Manifest map[string]ManifestEntry

// ManifestEntry records one file's identity.
type ManifestEntry struct {
	Size     int64
	Checksum uint64
}

// checksumScan runs a checksum-only fused scan over the files — each file
// opened and streamed exactly once, shard-sequentially for pack-backed
// corpora — and returns the per-file sums.
func checksumScan(ctx context.Context, files []File, workers int) ([]scan.FileSum, error) {
	ck := scan.NewChecksum()
	srcs := scan.SequentialOrder(Sources(files))
	if err := scan.Run(ctx, srcs, scan.Options{Workers: workers}, ck); err != nil {
		return nil, err
	}
	return ck.Sums(), nil
}

// BuildManifestCtx checksums every content-backed file of the file system
// via a checksum-only fused scan over all CPUs. Each file's checksum
// depends only on its own bytes, so the manifest is identical at any
// worker count. Checksum dispatch stops once ctx is done and the call
// returns a typed cancellation error (errors.Is against errs.ErrCancelled
// / errs.ErrDeadline).
func BuildManifestCtx(ctx context.Context, fs *FS) (Manifest, error) {
	return BuildManifestWorkersCtx(ctx, fs, 0)
}

// BuildManifestWorkersCtx is BuildManifestCtx with an explicit worker
// count (0 or negative means GOMAXPROCS); workers=1 is the serial
// reference.
func BuildManifestWorkersCtx(ctx context.Context, fs *FS, workers int) (Manifest, error) {
	files := fs.List()
	sums, err := checksumScan(ctx, files, workers)
	if err != nil {
		return nil, err
	}
	m := make(Manifest, len(files))
	for _, s := range sums {
		m[s.Name] = ManifestEntry{Size: s.Size, Checksum: s.Sum}
	}
	return m, nil
}

// VerifyCtx checks the file system against the manifest: every manifest
// entry must exist with matching size and checksum, and the file system
// must not contain extra files. The first violation (in name order) is
// returned as an error. Content is checksummed by a fused scan — one open
// and one streaming read per file, shard-sequential for packed corpora.
// Cancellation follows the usual typed-error contract.
func (m Manifest) VerifyCtx(ctx context.Context, fs *FS) error {
	if fs.Len() != len(m) {
		return errs.Corrupt("vfs: manifest has %d entries, file system %d files", len(m), fs.Len())
	}
	// Deterministic iteration for stable error messages: cheap metadata
	// checks first, in name order.
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]File, 0, len(m))
	for _, name := range names {
		want := m[name]
		f, err := fs.Get(name)
		if err != nil {
			return fmt.Errorf("vfs: manifest entry %q missing: %w", name, err)
		}
		if f.Size != want.Size {
			return errs.StageFile("manifest-verify", name,
				errs.Corrupt("vfs: size %d != manifest %d", f.Size, want.Size))
		}
		files = append(files, f)
	}
	sums, err := checksumScan(ctx, files, 0)
	if err != nil {
		return err
	}
	byName := make(map[string]uint64, len(sums))
	for _, s := range sums {
		byName[s.Name] = s.Sum
	}
	for _, name := range names {
		if sum := byName[name]; sum != m[name].Checksum {
			return errs.StageFile("manifest-verify", name,
				errs.Corrupt("vfs: checksum %x != manifest %x", sum, m[name].Checksum))
		}
	}
	return nil
}
