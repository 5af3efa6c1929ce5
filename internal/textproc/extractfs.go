package textproc

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/vfs"
)

// ExtractFS derives a text corpus from an HTML corpus by stripping markup
// from every content-backed file — the provenance of the paper's second
// data set, whose 400k text files were "extracted from a subset of HTML
// English language articles". File names keep their path with the
// extension rewritten to .txt; extraction is lazy, so the derived corpus
// is as cheap to hold as the source.
func ExtractFS(in *vfs.FS) (*vfs.FS, error) {
	out := vfs.NewFS()
	for _, f := range in.List() {
		if !f.HasContent() {
			return nil, fmt.Errorf("textproc: cannot extract metadata-only file %q", f.Name)
		}
		// Extraction must happen once eagerly to learn the text size (the
		// corpus abstraction requires it up front), but the bytes are then
		// discarded; re-opens re-extract deterministically.
		src := f
		data, err := src.ReadAll()
		if err != nil {
			return nil, err
		}
		text := ExtractText(data)
		name := rewriteExt(f.Name, ".txt")
		nf := vfs.NewContentFile(name, int64(len(text)), lazyExtract(src))
		if err := out.Add(nf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lazyExtract re-derives the text from the source file on each open.
func lazyExtract(src vfs.File) vfs.Opener {
	return func() (io.Reader, error) {
		data, err := src.ReadAll()
		if err != nil {
			return nil, err
		}
		return bytes.NewReader(ExtractText(data)), nil
	}
}

// rewriteExt swaps the final extension for ext (appending when none).
func rewriteExt(name, ext string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.LastIndexByte(name, '.')
	if dot > slash {
		return name[:dot] + ext
	}
	return name + ext
}
