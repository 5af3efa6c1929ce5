// Command reshape merges a directory of small files into unit files of a
// target size using the paper's subset-sum first-fit heuristic. This is
// the real-data counterpart of the simulator experiments: the output unit
// files contain exactly the input bytes, concatenated.
//
// With -pack the unit files are written as checksummed pack shards
// (internal/packstore) instead of one plain file per unit — the durable
// staging artefact: a handful of file opens on re-import, per-member
// checksums, O(1) random access to any unit.
//
// Either way the manifest of which inputs each unit holds is written
// beside the output directory, as <out>.manifest.txt.
//
// Usage:
//
//	reshape -in ./corpus -out ./units -unit 100000000   # 100 MB units
//	reshape -in ./corpus -unit 1000000 -dry             # packing stats only
//	reshape -in ./corpus -out ./packed -unit 100000000 -pack -verify
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/binpack"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/vfs"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	var (
		inDir   = flag.String("in", "", "input directory of small files (required)")
		outDir  = flag.String("out", "", "output directory for unit files")
		unit    = flag.Int64("unit", 100_000_000, "target unit file size in bytes")
		prefix  = flag.String("prefix", "unit", "unit file name prefix")
		dry     = flag.Bool("dry", false, "plan only; do not write output")
		pack    = flag.Bool("pack", false, "write pack shards instead of plain unit files")
		shard   = flag.Int64("shard", 256<<20, "target pack shard size in bytes (with -pack; 0 = 256 MiB)")
		verify  = flag.Bool("verify", false, "re-import the packs and verify checksums (with -pack)")
		workers = flag.Int("workers", 0, "content read-ahead workers for -pack (0 = all CPUs)")
	)
	flag.Parse()
	if err := cli.Positive("unit", float64(*unit)); err != nil {
		fatal(err)
	}
	shardSize, err := cli.Count("shard", *shard, 0)
	if err != nil {
		fatal(err)
	}
	nWorkers, err := cli.Count("workers", *workers, 0)
	if err != nil {
		fatal(err)
	}
	if *inDir == "" {
		fmt.Fprintln(os.Stderr, "reshape: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if !*dry && *outDir == "" {
		fmt.Fprintln(os.Stderr, "reshape: -out is required unless -dry")
		os.Exit(2)
	}

	fs, err := vfs.ImportDir(*inDir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("input: %d files, %d bytes\n", fs.Len(), fs.TotalSize())

	merged, bins, err := core.ReshapeCtx(ctx, fs, *unit, *prefix)
	if err != nil {
		fatal(err)
	}
	stats := binpack.Summarize(bins)
	fmt.Printf("packed into %d unit files (mean fill %.1f%%, %d oversized inputs)\n",
		stats.Bins, stats.MeanFill*100, stats.Oversized)
	fmt.Printf("output segmentation: %d -> %d files (%.1fx fewer)\n",
		fs.Len(), merged.Len(), float64(fs.Len())/float64(merged.Len()))

	if *dry {
		return
	}
	if *pack {
		paths, err := merged.ExportPackCtx(ctx, *outDir, vfs.PackOptions{
			Prefix:    *prefix,
			ShardSize: shardSize,
			Workers:   nWorkers,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d unit files into %d pack shard(s) in %s\n", merged.Len(), len(paths), *outDir)
		if *verify {
			// The manifest of what was meant to be written, checked against
			// what a fresh import reads back: one parallel checksum scan
			// each, and a mismatch names the corrupt member.
			want, err := vfs.BuildManifestCtx(ctx, merged)
			if err != nil {
				fatal(err)
			}
			imported, closer, err := vfs.ImportPackCtx(ctx, *outDir)
			if err != nil {
				fatal(err)
			}
			defer closer.Close()
			if err := want.VerifyCtx(ctx, imported); err != nil {
				fatal(fmt.Errorf("verify: pack round-trip: %w", err))
			}
			fmt.Printf("verified: %d members round-trip bit-identically\n", imported.Len())
		}
	} else {
		if err := merged.ExportCtx(ctx, *outDir); err != nil {
			fatal(err)
		}
	}
	// The manifest traces outputs back to inputs. It goes beside the output
	// directory, not into it: a directory of unit files is a corpus, and a
	// later `pipeline -dir` would scan a manifest inside it as text.
	path := filepath.Clean(*outDir) + ".manifest.txt"
	manifest, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer manifest.Close()
	for i, b := range bins {
		fmt.Fprintf(manifest, "%s-%06d (%d bytes):\n", *prefix, i, b.Used)
		for _, it := range b.Items {
			fmt.Fprintf(manifest, "  %s %d\n", it.ID, it.Size)
		}
	}
	if !*pack {
		fmt.Printf("wrote %d unit files to %s\n", merged.Len(), *outDir)
	}
	fmt.Printf("wrote the manifest to %s\n", path)
}

func fatal(err error) {
	cli.Fatal("reshape", err)
}
