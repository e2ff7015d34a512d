package planner

import (
	"fmt"
	"testing"

	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

func benchInstance(b *testing.B, n int) *model.Query {
	b.Helper()
	q, err := gen.Default(n, 7).Generate()
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	return q
}

// BenchmarkCanonicalize measures canonicalization — the cost a request
// pays when the memo misses (first sight of a query serialization) — from
// the cold-search sizes to the largest exact one. gen.Default draws have
// discrete initial colors, so this times the sort and the encoding, not
// refinement.
func BenchmarkCanonicalize(b *testing.B) {
	for _, n := range []int{12, 17, 32, 64} {
		q := benchInstance(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canonicalize(q)
			}
		})
	}
}

// BenchmarkEncodeRaw measures the serialization behind the memo key — the
// per-request cost on the warm hit path, ahead of its SHA-256 digest.
func BenchmarkEncodeRaw(b *testing.B) {
	q := benchInstance(b, 12)
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = encodeRaw(q, buf[:0])
	}
	_ = buf
}
