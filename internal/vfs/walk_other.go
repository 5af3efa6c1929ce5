//go:build !linux || packstore_nommap

package vfs

import (
	"os"
	"path/filepath"
)

// walkFiles lists each directory with os.ReadDir and builds each name by
// appending the entry to its directory's as it descends, instead of
// recovering the name from a path with filepath.Rel per entry.
func walkFiles(dir string, emit func([]dirEntry) error) error {
	var chunk []dirEntry
	var walk func(path, prefix string) error
	walk = func(path, prefix string) error {
		list, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, d := range list {
			name := prefix + d.Name()
			if d.IsDir() {
				err = walk(path+d.Name()+string(filepath.Separator), name+"/")
			} else if chunk = append(chunk, dirEntry{name: name}); len(chunk) == importChunkFiles {
				err, chunk = emit(chunk), nil
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(walkRoot(dir), ""); err != nil || len(chunk) == 0 {
		return err
	}
	return emit(chunk)
}
