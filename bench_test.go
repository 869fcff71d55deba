package sherman

// Conventional Go microbenchmarks of the public API for library users. The
// paper's tables and figures are regenerated by cmd/shermanbench
// (`go run ./cmd/shermanbench -exp <id> -quick`).

import "testing"

// BenchmarkPublicAPIPut measures the public API overhead on a plain
// single-session insert stream (not a paper figure; a conventional Go
// microbenchmark for library users).
func BenchmarkPublicAPIPut(b *testing.B) {
	c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := c.CreateTree(DefaultTreeOptions())
	if err != nil {
		b.Fatal(err)
	}
	s := openSession(b, tree, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(uint64(i)+1, uint64(i))
	}
}

// BenchmarkPublicAPIGet measures lookups against a preloaded tree.
func BenchmarkPublicAPIGet(b *testing.B) {
	c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := c.CreateTree(DefaultTreeOptions())
	if err != nil {
		b.Fatal(err)
	}
	kvs := make([]KV, 100_000)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i + 1), Value: uint64(i)}
	}
	if err := tree.Bulkload(kvs); err != nil {
		b.Fatal(err)
	}
	s := openSession(b, tree, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(uint64(i%100_000) + 1)
	}
}
