//go:build !scandebug

package dist

// poison is a no-op in release builds; the compiler removes the calls.
func poison([]byte) {}
