package apps

import (
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/workload"
)

// Application-kernel benchmarks: per-application local-reduction throughput
// on the real engine — the quantity the simulator's ComputeBytesPerSec
// calibration stands in for.

func benchPointsDataset(b *testing.B, dim int, units int64) (*chunk.Index, chunk.Source) {
	b.Helper()
	gen := workload.UniformPoints{Seed: 2, Dim: dim}
	ix, err := chunk.Layout("bp", units, gen.UnitSize(), int(units/4), int(units/32))
	if err != nil {
		b.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		b.Fatal(err)
	}
	return ix, src
}

func benchApp(b *testing.B, r core.Reducer, ix *chunk.Index, src chunk.Source) {
	b.Helper()
	b.SetBytes(ix.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.EngineConfig{Reducer: r, Workers: 1, UnitSize: ix.UnitSize}, ix, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNNKernel(b *testing.B) {
	ix, src := benchPointsDataset(b, 8, 64_000)
	r, err := NewKNNReducer(knnParams(8, 10))
	if err != nil {
		b.Fatal(err)
	}
	benchApp(b, r, ix, src)
}

func BenchmarkKMeansKernel(b *testing.B) {
	ix, src := benchPointsDataset(b, 8, 64_000)
	centers := make([][]float64, 16)
	for k := range centers {
		centers[k] = make([]float64, 8)
		for d := range centers[k] {
			centers[k][d] = float64(k) / 16
		}
	}
	r, err := NewKMeansReducer(KMeansParams{K: 16, Dim: 8, Centers: centers})
	if err != nil {
		b.Fatal(err)
	}
	benchApp(b, r, ix, src)
}

func BenchmarkPageRankKernel(b *testing.B) {
	gen := &workload.PowerLawGraph{Seed: 2, Nodes: 10_000, Edges: 256_000}
	ix, err := chunk.Layout("bg", 256_000, workload.EdgeUnitSize, 64_000, 8_000)
	if err != nil {
		b.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		b.Fatal(err)
	}
	r, err := NewPageRankReducer(PageRankParams{Nodes: 10_000, Damping: 0.85})
	if err != nil {
		b.Fatal(err)
	}
	benchApp(b, r, ix, src)
}

func BenchmarkHistogramKernel(b *testing.B) {
	ix, src := benchPointsDataset(b, 8, 64_000)
	r, err := NewHistogramReducer(HistogramParams{Bins: 64, Dim: 8})
	if err != nil {
		b.Fatal(err)
	}
	benchApp(b, r, ix, src)
}

func BenchmarkKNNCodec(b *testing.B) {
	r, err := NewKNNReducer(knnParams(8, 10))
	if err != nil {
		b.Fatal(err)
	}
	obj := r.NewObject().(*KNNObject)
	for i := 0; i < 10; i++ {
		obj.insert(Neighbor{Dist: float64(i), Point: make([]float64, 8)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc, err := r.Encode(obj)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRankCodec(b *testing.B) {
	r, err := NewPageRankReducer(PageRankParams{Nodes: 100_000, Damping: 0.85})
	if err != nil {
		b.Fatal(err)
	}
	obj := r.NewObject()
	b.SetBytes(8 * 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := r.Encode(obj)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansKernel192 is the k-means kernel at the live benchmark's
// kmeans-iter shape (K=192, Dim=8), where the center search dominates.
func BenchmarkKMeansKernel192(b *testing.B) {
	const k, dim = 192, 8
	ix, src := benchPointsDataset(b, dim, 64_000)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = float64((c*7+d*3)%k) / k
		}
	}
	r, err := NewKMeansReducer(KMeansParams{K: k, Dim: dim, Centers: centers})
	if err != nil {
		b.Fatal(err)
	}
	benchApp(b, r, ix, src)
}
