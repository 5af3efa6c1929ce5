package scan

// ChunkBounds exposes Run's chunk partitioning to the external-package
// differential tests, which assert that their corpora really do put
// small files, an oversized source and a lone source on chunk boundaries.
var ChunkBounds = chunkBounds
