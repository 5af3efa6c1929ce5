//go:build !linux || packstore_nommap

package vfs

import (
	"os"
	"path/filepath"
)

// walkFiles lists each directory with os.ReadDir and builds each name and
// path by appending the entry to its directory's as it descends, instead
// of recovering the name from the path with filepath.Rel per entry.
func walkFiles(dir string) ([]dirEntry, error) {
	var entries []dirEntry
	var walk func(path, prefix string) error
	walk = func(path, prefix string) error {
		list, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, d := range list {
			name, sub := prefix+d.Name(), path+d.Name()
			if !d.IsDir() {
				entries = append(entries, dirEntry{name, sub})
			} else if err := walk(sub+string(filepath.Separator), name+"/"); err != nil {
				return err
			}
		}
		return nil
	}
	if dir != "" && !os.IsPathSeparator(dir[len(dir)-1]) {
		dir += string(filepath.Separator)
	}
	return entries, walk(dir, "")
}
