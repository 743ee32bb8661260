package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/apps"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// query is one query the load generator admits.
type query struct {
	app     string
	params  []byte
	reducer core.GroupReducer // the head's reducer for the query
	weight  int
	// check compares the query's final object with the reference fold.
	check func(core.Object) error
}

// bench is one workload: a dataset and the rounds of queries run over it.
// The queries of a round are admitted together and waited for before the
// next round; a round's queries may depend on the previous round's results.
type bench struct {
	name   string
	ds     *dataset
	rounds int
	next   func(round int, prev []core.Object) ([]query, error)
}

// size is a workload's shape. The full sizes are the benchmark's; tests use
// tiny ones.
type size struct {
	units      int64 // data units (points or edges)
	chunkUnits int   // units per chunk, i.e. per job
	fileChunks int   // chunks per file
	localFrac  float64
	k          int // neighbours (knn) or centres (kmeans)
	rounds     int
}

var (
	fullSizes = map[string]size{
		"knn-wan":       {units: 3 << 20, chunkUnits: 32 << 10, fileChunks: 8, localFrac: 1.0 / 3, k: 10, rounds: 3},
		"kmeans-iter":   {units: 1 << 20, chunkUnits: 16 << 10, fileChunks: 8, localFrac: 0.5, k: 192, rounds: 4},
		"multi-small":   {units: 1 << 19, chunkUnits: 256, fileChunks: 32, localFrac: 63.0 / 64, rounds: 1},
		"pagerank-sync": {units: 1 << 20, chunkUnits: 16 << 10, fileChunks: 8, localFrac: 0.5, rounds: 3},
	}
	tinySizes = map[string]size{
		"knn-wan":       {units: 3 << 12, chunkUnits: 128, fileChunks: 8, localFrac: 1.0 / 3, k: 10, rounds: 3},
		"kmeans-iter":   {units: 1 << 12, chunkUnits: 64, fileChunks: 8, localFrac: 0.5, k: 8, rounds: 2},
		"multi-small":   {units: 1 << 12, chunkUnits: 32, fileChunks: 16, localFrac: 0.5, rounds: 1},
		"pagerank-sync": {units: 1 << 12, chunkUnits: 64, fileChunks: 8, localFrac: 0.5, rounds: 3},
	}
)

// workloadNames lists the workloads in the order `-workload all` runs them.
var workloadNames = []string{"knn-wan", "kmeans-iter", "multi-small", "pagerank-sync"}

const (
	dim     = 8 // point dimensionality
	damping = 0.85
	// relTol bounds the relative difference of floating-point sums from the
	// reference: the system folds in another order.
	relTol = 1e-9
)

// newBench generates workload name's input from seed and computes its
// reference results.
func newBench(name string, seed uint64, sizes map[string]size) (*bench, error) {
	sz, ok := sizes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	rng := rand.New(rand.NewPCG(seed, 0x6c697665))
	switch name {
	case "knn-wan":
		return knnBench(name, seed, sz, rng)
	case "kmeans-iter":
		return kmeansBench(name, seed, sz, rng)
	case "multi-small":
		return histogramBench(name, seed, sz)
	default:
		return pagerankBench(name, seed, sz)
	}
}

// layout places sz's units in files of fileChunks chunks, the first
// localFrac of the files on the local site and the rest in S3.
func layout(sz size, gen workload.Generator) (*dataset, error) {
	ix, err := chunk.Layout("part", sz.units, gen.UnitSize(), sz.chunkUnits*sz.fileChunks, sz.chunkUnits)
	if err != nil {
		return nil, err
	}
	placement := jobs.SplitByFraction(len(ix.Files), sz.localFrac, siteLocal, siteS3)
	return newDataset(ix, gen, placement)
}

// reference folds the whole dataset single-threaded with r.
func reference(ds *dataset, r core.GroupReducer) (core.Object, error) {
	obj := r.NewObject()
	for _, data := range ds.data {
		if err := r.LocalReduceGroup(obj, data, ds.ix.UnitSize); err != nil {
			return nil, err
		}
	}
	return obj, nil
}

// sameEncoding checks got against want byte for byte, for objects whose
// fold is exact in any order.
func sameEncoding(r core.Reducer, want core.Object) func(core.Object) error {
	wantB, err := r.Encode(want)
	return func(got core.Object) error {
		if err != nil {
			return err
		}
		gotB, err := r.Encode(got)
		if err != nil {
			return err
		}
		if !bytes.Equal(gotB, wantB) {
			return fmt.Errorf("object differs from the reference (%d vs %d bytes)", len(gotB), len(wantB))
		}
		return nil
	}
}

// closeTo checks that got and want agree within relTol, element-wise.
func closeTo(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > relTol*math.Max(math.Abs(got[i]), math.Abs(want[i])) {
			return fmt.Errorf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
	return nil
}

func knnBench(name string, seed uint64, sz size, rng *rand.Rand) (*bench, error) {
	ds, err := layout(sz, workload.UniformPoints{Seed: seed, Dim: dim})
	if err != nil {
		return nil, err
	}
	qs := make([]query, sz.rounds)
	for i := range qs {
		p := apps.KNNParams{K: sz.k, Dim: dim, Query: make([]float64, dim)}
		for d := range p.Query {
			p.Query[d] = rng.Float64()
		}
		r, err := apps.NewKNNReducer(p)
		if err != nil {
			return nil, err
		}
		params, err := apps.EncodeKNNParams(p)
		if err != nil {
			return nil, err
		}
		want, err := reference(ds, r)
		if err != nil {
			return nil, err
		}
		qs[i] = query{app: apps.KNNReducerName, params: params, reducer: r, weight: 1, check: sameEncoding(r, want)}
	}
	return &bench{name: name, ds: ds, rounds: sz.rounds, next: func(round int, _ []core.Object) ([]query, error) {
		return qs[round : round+1], nil
	}}, nil
}

func kmeansBench(name string, seed uint64, sz size, rng *rand.Rand) (*bench, error) {
	ds, err := layout(sz, workload.ClusteredPoints{Seed: seed, Dim: dim, K: sz.k, Spread: 0.05})
	if err != nil {
		return nil, err
	}
	// Seed the centres with k distinct points drawn from the dataset.
	centres := make([][]float64, 0, sz.k)
	for _, u := range rng.Perm(int(sz.units))[:sz.k] {
		off := u * ds.ix.UnitSize
		file := off / int(ds.ix.Files[0].Size)
		c := make([]float64, dim)
		workload.DecodePoint(ds.data[file][off%int(ds.ix.Files[0].Size):], c)
		centres = append(centres, c)
	}
	// The reference chain: each round's object and the centres it gives.
	wants := make([]*apps.KMeansObject, sz.rounds)
	cs := centres
	for i := range wants {
		r, err := apps.NewKMeansReducer(apps.KMeansParams{K: sz.k, Dim: dim, Centers: cs})
		if err != nil {
			return nil, err
		}
		obj, err := reference(ds, r)
		if err != nil {
			return nil, err
		}
		wants[i] = obj.(*apps.KMeansObject)
		cs = apps.NextCenters(wants[i], cs)
	}
	cur := centres
	return &bench{name: name, ds: ds, rounds: sz.rounds, next: func(round int, prev []core.Object) ([]query, error) {
		if round == 0 {
			cur = centres
		} else {
			cur = apps.NextCenters(prev[0].(*apps.KMeansObject), cur)
		}
		p := apps.KMeansParams{K: sz.k, Dim: dim, Centers: cur}
		r, err := apps.NewKMeansReducer(p)
		if err != nil {
			return nil, err
		}
		params, err := apps.EncodeKMeansParams(p)
		if err != nil {
			return nil, err
		}
		want := wants[round]
		check := func(obj core.Object) error {
			got := obj.(*apps.KMeansObject)
			for k := range want.Sums {
				if got.Counts[k] != want.Counts[k] {
					return fmt.Errorf("round %d centre %d: %d points, reference %d", round, k, got.Counts[k], want.Counts[k])
				}
				if err := closeTo(fmt.Sprintf("round %d sums[%d]", round, k), got.Sums[k], want.Sums[k]); err != nil {
					return err
				}
			}
			return closeTo(fmt.Sprintf("round %d sse", round), []float64{got.SSE}, []float64{want.SSE})
		}
		return []query{{app: apps.KMeansReducerName, params: params, reducer: r, weight: 1, check: check}}, nil
	}}, nil
}

// histogramBins and histogramWeights shape multi-small's concurrent
// queries: four histograms of the same points at different resolutions,
// the first with twice the fair share of the others.
var (
	histogramBins    = []int{16, 64, 256, 1024}
	histogramWeights = []int{2, 1, 1, 1}
)

func histogramBench(name string, seed uint64, sz size) (*bench, error) {
	ds, err := layout(sz, workload.UniformPoints{Seed: seed, Dim: dim})
	if err != nil {
		return nil, err
	}
	var qs []query
	for i, bins := range histogramBins {
		p := apps.HistogramParams{Bins: bins, Dim: dim}
		r, err := apps.NewHistogramReducer(p)
		if err != nil {
			return nil, err
		}
		params, err := apps.EncodeHistogramParams(p)
		if err != nil {
			return nil, err
		}
		want, err := reference(ds, r)
		if err != nil {
			return nil, err
		}
		qs = append(qs, query{app: apps.HistogramReducerName, params: params, reducer: r,
			weight: histogramWeights[i], check: sameEncoding(r, want)})
	}
	return &bench{name: name, ds: ds, rounds: 1, next: func(int, []core.Object) ([]query, error) {
		return qs, nil
	}}, nil
}

func pagerankBench(name string, seed uint64, sz size) (*bench, error) {
	nodes := int(sz.units) // as many nodes as edges
	ds, err := layout(sz, &workload.PowerLawGraph{Seed: seed, Nodes: nodes, Edges: sz.units})
	if err != nil {
		return nil, err
	}
	wants := make([][]float64, sz.rounds)
	var ranks []float64 // nil: uniform start
	for i := range wants {
		r, err := apps.NewPageRankReducer(apps.PageRankParams{Nodes: nodes, Damping: damping, Ranks: ranks})
		if err != nil {
			return nil, err
		}
		obj, err := reference(ds, r)
		if err != nil {
			return nil, err
		}
		wants[i] = obj.(*apps.PageRankObject).Incoming
		ranks = apps.NextRanks(obj.(*apps.PageRankObject), damping)
	}
	return &bench{name: name, ds: ds, rounds: sz.rounds, next: func(round int, prev []core.Object) ([]query, error) {
		p := apps.PageRankParams{Nodes: nodes, Damping: damping}
		if round > 0 {
			p.Ranks = apps.NextRanks(prev[0].(*apps.PageRankObject), damping)
		}
		r, err := apps.NewPageRankReducer(p)
		if err != nil {
			return nil, err
		}
		params, err := apps.EncodePageRankParams(p)
		if err != nil {
			return nil, err
		}
		want := wants[round]
		check := func(obj core.Object) error {
			return closeTo(fmt.Sprintf("round %d incoming", round), obj.(*apps.PageRankObject).Incoming, want)
		}
		return []query{{app: apps.PageRankReducerName, params: params, reducer: r, weight: 1, check: check}}, nil
	}}, nil
}
