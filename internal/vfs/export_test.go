package vfs

// Test helpers of this package that the external tests (package vfs_test)
// build their corpora with.
var (
	DirTestTree     = dirTestTree
	MappedTestTrees = testTrees
	PackTestFS      = packTestFS
	OpenFDs         = openFDs
	ChecksumOracle  = checksumOracle
)
