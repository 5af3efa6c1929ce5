package vfs

import "repro/internal/scan"

// Sources adapts a file list to scan engine inputs, preserving order and
// carrying pack locality so SequentialOrder can keep pack reads
// sequential on disk. Raw-backed files (mapped imports) additionally
// carry the zero-copy view, so the engine feeds kernels borrowed windows
// instead of streaming through a pooled buffer. The sources reference the
// given slice's elements directly (a *File in an interface word costs no
// allocation), so the slice must stay alive and unmutated for the
// duration of the scan.
func Sources(files []File) []scan.Source {
	out := make([]scan.Source, len(files))
	for i := range files {
		f := &files[i]
		out[i] = scan.Source{
			Name:    f.Name,
			Size:    f.Size,
			Shard:   f.shard,
			Offset:  f.shardOff,
			Content: f,
		}
		if f.hasRaw {
			out[i].Raw = f
		}
	}
	return out
}
