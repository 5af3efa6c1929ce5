package vfs_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/vfs"
)

// mixedTreeUnit is the reshaping target writeMixedTree's sizes are chosen
// for (cmd/reshape -unit).
const mixedTreeUnit = 4_400_000

// writeMixedTree writes the corpus the determinism test reshapes. At
// mixedTreeUnit the subset-sum packer makes four units of it, in List
// order: the 4 000 000-byte file plus all thirty small ones (31 members,
// just under the export's 4 MiB read-ahead cap, so a loader materialises
// it), the 2 200 000 + 2 150 000 pair (above the cap: the writer streams
// it), five of the 800 000-byte files (materialised again), and the sixth
// on its own.
func writeMixedTree(t *testing.T, dir string) {
	t.Helper()
	sizes := map[string]int{"big/a.txt": 4_000_000, "big/b.txt": 2_200_000, "big/c.txt": 2_150_000}
	for i := 0; i < 6; i++ {
		sizes[fmt.Sprintf("mid/m%d.txt", i)] = 800_000
	}
	for i := 0; i < 30; i++ {
		sizes[fmt.Sprintf("small/d%d/s%02d.txt", i%3, i)] = i * 131 % 3000 // s00 is empty
	}
	for name, size := range sizes {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte((len(name)*31 + size + j*13 + j>>8) % 251)
		}
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recordedShards are the SHA-256 digests of the shards
// `cmd/reshape -unit 4400000 -pack -shard <key>` writes for
// writeMixedTree's corpus, identical at -workers 1, 2 and 8, keyed by
// shard size: one unit per shard, two, and all four in one. They were
// first recorded from the serial exporter the pipeline replaced and
// re-recorded once, when pack sums became CRC-32C (format v2): only the
// header magic and the checksum slots changed then.
var recordedShards = map[int64][]string{
	1: {
		"e211ce0b81c6da52616b120a61e71be55ebd4f125a4b68a750bbbde206539e11",
		"501cc59a26f71b2555480e226f4d82fbca431d80d7b42f0f75fc5478d3766feb",
		"55aaf093921e92f251f7cb03ef5f2d9fba841dd25c0dd846413313aa184a6b6d",
		"68dd6fed87552e66873f0f051dde19bb5db18ff44174bb12c6e0027f68a2b343",
	},
	9_000_000: {
		"3222ebb84076008fe81ae7e9d177f344e27cfc2bc44088ed6685e571d00cf0e5",
		"ef05123812d194c21f25659104490ac13b6cd47dc0741d893e4ee15384323bad",
	},
	256 << 20: {
		"e9764e6000bb9825fa33129f826a3a33830a976b4e33e9d777dcb10d6135f225",
	},
}

// TestExportPackDeterministicAcrossWorkers: whatever the loader count and
// however the units fall into shards, the export writes the recorded
// bytes — for units a loader materialised, with one or many members, and
// for the one the writer streams between them.
func TestExportPackDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	writeMixedTree(t, dir)
	in, err := vfs.ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := core.ReshapeCtx(ctx, in, mixedTreeUnit, "unit")
	if err != nil {
		t.Fatal(err)
	}
	// The premise: a streamed unit mid-list, materialised ones around it.
	if got, want := merged.Sizes(), []int64{4_035_985, 4_350_000, 4_000_000, 800_000}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reshape made units of %v bytes, the test is built for %v (4 MiB = %d)", got, want, 4<<20)
	}
	for shard, want := range recordedShards {
		for _, workers := range []int{1, 2, 3, 8} {
			paths, err := merged.ExportPackCtx(ctx, t.TempDir(), vfs.PackOptions{Prefix: "unit", ShardSize: shard, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, len(paths))
			for i, p := range paths {
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				got[i] = hex.EncodeToString(sum[:])
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shard size %d, workers %d: shards digest to\n%q\nrecorded\n%q", shard, workers, got, want)
			}
		}
	}
}
