//go:build !scandebug

package packstore

// poison is a no-op in release builds; the compiler removes the calls.
func poison([]byte) {}
