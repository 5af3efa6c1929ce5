//go:build !scandebug

package scan

// poison is a no-op in release builds; the compiler removes the calls.
func poison([]byte) {}
