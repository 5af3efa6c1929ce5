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

// parentShards are the SHA-256 digests of the shards the parent of the
// pipelined exporter wrote for writeMixedTree's corpus — its
// `cmd/reshape -unit 4400000 -pack -shard <key>`, the window-barrier
// export, identical at -workers 1, 2, 3 and 8 — keyed by shard size: one
// unit per shard, two, and all four in one.
var parentShards = map[int64][]string{
	1: {
		"5790226c545208c9784ca9d89d03a4de8960f72b485189ed1edf0602feb37190",
		"0b68c433f6781e5857ff01539e7cf2e0f8b07c7dd51412d64a339b63d24bb2a1",
		"ec3f6c5de730f85729d18df5f756280ccc395b7b7701906ee51b4b0d726ff1fb",
		"03eb5991a45ebdefdc962de7b9779751fcd5a6cb280622a4a498a391ad05e1fa",
	},
	9_000_000: {
		"41918c7f7a283d671d6c4f387ff6af3a8a807c53b5afd07ee27fbc6dd20ccce7",
		"10287cbc9e760766641eeedc35f1db98edf717b8b46c08267669905e24faba7f",
	},
	256 << 20: {
		"341c8dfb279e6facde8d6f24f015a6300d97347dd77d9b09b206a20a1545db63",
	},
}

// TestExportPackDeterministicAcrossWorkers: whatever the loader count and
// however the units fall into shards, the export writes the bytes the
// serial parent wrote — for units a loader materialised, with one or many
// members, and for the one the writer streams between them.
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
	for shard, want := range parentShards {
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
				t.Errorf("shard size %d, workers %d: shards digest to\n%q\nthe parent's to\n%q", shard, workers, got, want)
			}
		}
	}
}
