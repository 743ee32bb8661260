package apps

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/workload"
)

// buildPoints materializes a small point dataset and returns the decoded
// points for reference computations.
func buildPoints(t testing.TB, gen workload.Generator, dim int, units int64) (*chunk.Index, *chunk.MemSource, [][]float64) {
	t.Helper()
	ix, err := chunk.Layout("pts", units, gen.UnitSize(), 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		t.Fatal(err)
	}
	var pts [][]float64
	for _, ref := range ix.AllRefs() {
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += gen.UnitSize() {
			pt := make([]float64, dim)
			workload.DecodePoint(data[off:off+gen.UnitSize()], pt)
			pts = append(pts, pt)
		}
	}
	return ix, src, pts
}

// --------------------------------------------------------------------- kNN

func knnParams(dim, k int) KNNParams {
	q := make([]float64, dim)
	for i := range q {
		q[i] = 0.5
	}
	return KNNParams{K: k, Dim: dim, Query: q}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	gen := workload.UniformPoints{Seed: 21, Dim: 3}
	ix, src, pts := buildPoints(t, gen, 3, 600)
	p := knnParams(3, 10)
	r, err := NewKNNReducer(p)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := core.Run(core.EngineConfig{Reducer: r, Workers: 4, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	got := obj.(*KNNObject).Best
	want := BruteForceKNN(pts, p.Query, p.K)
	if len(got) != p.K {
		t.Fatalf("got %d neighbors, want %d", len(got), p.K)
	}
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
			t.Errorf("neighbor %d dist = %v, want %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestKNNObjectInsertProperty(t *testing.T) {
	// The k-best list stays sorted and bounded under arbitrary insertions.
	f := func(dists []float64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		obj := &KNNObject{K: k}
		for _, d := range dists {
			obj.insert(Neighbor{Dist: math.Abs(d)})
		}
		if len(obj.Best) > k {
			return false
		}
		for i := 1; i < len(obj.Best); i++ {
			if obj.Best[i].Dist < obj.Best[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKNNCodecRoundTrip(t *testing.T) {
	p := knnParams(2, 3)
	r, _ := NewKNNReducer(p)
	obj := r.NewObject().(*KNNObject)
	obj.insert(Neighbor{Dist: 0.5, Point: []float64{0.1, 0.2}})
	obj.insert(Neighbor{Dist: 0.25, Point: []float64{0.3, 0.4}})
	enc, err := r.Encode(obj)
	if err != nil {
		t.Fatal(err)
	}
	back, err := r.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	b := back.(*KNNObject)
	if len(b.Best) != 2 || b.Best[0].Dist != 0.25 || b.Best[0].Point[1] != 0.4 {
		t.Errorf("round trip = %+v", b.Best)
	}
	if _, err := r.Decode(enc[:len(enc)-1]); err == nil {
		t.Error("truncated object accepted")
	}
	if _, err := r.Decode(nil); err == nil {
		t.Error("empty object accepted")
	}
}

func TestKNNParamsValidation(t *testing.T) {
	bad := []KNNParams{
		{K: 0, Dim: 2, Query: []float64{0, 0}},
		{K: 1, Dim: 0, Query: nil},
		{K: 1, Dim: 2, Query: []float64{0}},
	}
	for i, p := range bad {
		if _, err := NewKNNReducer(p); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
}

func TestKNNRegistry(t *testing.T) {
	p := knnParams(2, 5)
	enc, err := EncodeKNNParams(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewReducer(KNNReducerName, enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.(*KNNReducer).Params.K != 5 {
		t.Errorf("registry params = %+v", r.(*KNNReducer).Params)
	}
	if _, err := core.NewReducer(KNNReducerName, []byte("garbage")); err == nil {
		t.Error("garbage params accepted")
	}
}

func TestKNNMRMatchesGR(t *testing.T) {
	gen := workload.UniformPoints{Seed: 8, Dim: 2}
	ix, src, pts := buildPoints(t, gen, 2, 400)
	p := knnParams(2, 7)
	want := BruteForceKNN(pts, p.Query, p.K)
	for _, combine := range []bool{false, true} {
		job, err := KNNMRJob(p, combine)
		if err != nil {
			t.Fatal(err)
		}
		job.Workers = 3
		res, err := mapreduce.Run(job, ix, src)
		if err != nil {
			t.Fatalf("combine=%v: %v", combine, err)
		}
		got := res.Output["knn"].([]Neighbor)
		if len(got) != p.K {
			t.Fatalf("combine=%v: %d neighbors", combine, len(got))
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
				t.Errorf("combine=%v: neighbor %d dist %v, want %v", combine, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// ------------------------------------------------------------------ kmeans

func TestKMeansConvergesToTrueCenters(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 31, Dim: 2, K: 3, Spread: 0.005}
	ix, src, _ := buildPoints(t, gen, 2, 900)
	seeds, err := SeedCenters(ix, src, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	centers, sse, err := KMeansIterate(ix, src, KMeansParams{K: 3, Dim: 2, Centers: seeds}, 4, 30, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if sse <= 0 {
		t.Errorf("SSE = %v", sse)
	}
	// Every learned center must be close to some true blob center.
	for ci, c := range centers {
		best := math.MaxFloat64
		for k := 0; k < 3; k++ {
			tc := gen.TrueCenter(k)
			d := 0.0
			for i := range c {
				d += (c[i] - tc[i]) * (c[i] - tc[i])
			}
			if d < best {
				best = d
			}
		}
		if best > 0.01 {
			t.Errorf("center %d = %v is %v² away from every true center", ci, c, best)
		}
	}
}

func TestKMeansCodecRoundTrip(t *testing.T) {
	p := KMeansParams{K: 2, Dim: 3, Centers: [][]float64{{0, 0, 0}, {1, 1, 1}}}
	r, err := NewKMeansReducer(p)
	if err != nil {
		t.Fatal(err)
	}
	obj := r.NewObject().(*KMeansObject)
	obj.Sums[1][2] = 4.5
	obj.Counts[1] = 9
	obj.SSE = 2.25
	enc, err := r.Encode(obj)
	if err != nil {
		t.Fatal(err)
	}
	back, err := r.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	b := back.(*KMeansObject)
	if b.Sums[1][2] != 4.5 || b.Counts[1] != 9 || b.SSE != 2.25 {
		t.Errorf("round trip = %+v", b)
	}
	if _, err := r.Decode(enc[:8]); err == nil {
		t.Error("truncated object accepted")
	}
}

func TestNextCentersEmptyCluster(t *testing.T) {
	obj := &KMeansObject{
		Sums:   [][]float64{{10, 20}, {0, 0}},
		Counts: []int64{5, 0},
	}
	prev := [][]float64{{9, 9}, {7, 8}}
	next := NextCenters(obj, prev)
	if next[0][0] != 2 || next[0][1] != 4 {
		t.Errorf("center 0 = %v", next[0])
	}
	if next[1][0] != 7 || next[1][1] != 8 {
		t.Errorf("empty cluster drifted: %v", next[1])
	}
}

func TestKMeansMRMatchesGR(t *testing.T) {
	gen := workload.ClusteredPoints{Seed: 5, Dim: 2, K: 2, Spread: 0.02}
	ix, src, _ := buildPoints(t, gen, 2, 500)
	p := KMeansParams{K: 2, Dim: 2, Centers: [][]float64{{0.2, 0.2}, {0.8, 0.8}}}
	r, err := NewKMeansReducer(p)
	if err != nil {
		t.Fatal(err)
	}
	grObj, err := core.Run(core.EngineConfig{Reducer: r, Workers: 2, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, combine := range []bool{false, true} {
		job, err := KMeansMRJob(p, combine)
		if err != nil {
			t.Fatal(err)
		}
		job.Workers = 2
		res, err := mapreduce.Run(job, ix, src)
		if err != nil {
			t.Fatal(err)
		}
		mrObj, err := KMeansFromMR(res.Output, p)
		if err != nil {
			t.Fatal(err)
		}
		g := grObj.(*KMeansObject)
		for k := 0; k < p.K; k++ {
			if g.Counts[k] != mrObj.Counts[k] {
				t.Errorf("combine=%v cluster %d: GR count %d, MR count %d", combine, k, g.Counts[k], mrObj.Counts[k])
			}
			for i := 0; i < p.Dim; i++ {
				if math.Abs(g.Sums[k][i]-mrObj.Sums[k][i]) > 1e-6 {
					t.Errorf("combine=%v cluster %d dim %d: GR %v, MR %v", combine, k, i, g.Sums[k][i], mrObj.Sums[k][i])
				}
			}
		}
	}
}

func TestKMeansRegistryAndValidation(t *testing.T) {
	p := KMeansParams{K: 2, Dim: 2, Centers: [][]float64{{0, 0}, {1, 1}}}
	enc, err := EncodeKMeansParams(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewReducer(KMeansReducerName, enc); err != nil {
		t.Fatal(err)
	}
	bad := []KMeansParams{
		{K: 0, Dim: 2},
		{K: 2, Dim: 0},
		{K: 2, Dim: 2, Centers: [][]float64{{0, 0}}},
		{K: 1, Dim: 2, Centers: [][]float64{{0}}},
	}
	for i, p := range bad {
		if _, err := NewKMeansReducer(p); err == nil {
			t.Errorf("params %d accepted", i)
		}
	}
}

// ---------------------------------------------------------------- pagerank

// refPageRank computes one iteration directly from the decoded edges.
func refPageRank(edges []workload.Edge, prev []float64, nodes int, damping float64) []float64 {
	incoming := make([]float64, nodes)
	for _, e := range edges {
		incoming[e.Dst] += prev[e.Src] / float64(e.SrcOutDeg)
	}
	out := make([]float64, nodes)
	for i := range out {
		out[i] = (1-damping)/float64(nodes) + damping*incoming[i]
	}
	return out
}

func buildGraph(t testing.TB, nodes int, edges int64) (*chunk.Index, *chunk.MemSource, []workload.Edge) {
	t.Helper()
	gen := &workload.PowerLawGraph{Seed: 77, Nodes: nodes, Edges: edges}
	ix, err := chunk.Layout("graph", edges, workload.EdgeUnitSize, 500, 100)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, src); err != nil {
		t.Fatal(err)
	}
	var all []workload.Edge
	for _, ref := range ix.AllRefs() {
		data, err := src.ReadChunk(ref)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += workload.EdgeUnitSize {
			all = append(all, workload.DecodeEdge(data[off:]))
		}
	}
	return ix, src, all
}

func TestPageRankMatchesReference(t *testing.T) {
	const nodes = 40
	ix, src, edges := buildGraph(t, nodes, 1500)
	p := PageRankParams{Nodes: nodes, Damping: 0.85}
	r, err := NewPageRankReducer(p)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := core.Run(core.EngineConfig{Reducer: r, Workers: 4, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	got := NextRanks(obj.(*PageRankObject), p.Damping)
	prev := make([]float64, nodes)
	for i := range prev {
		prev[i] = 1 / float64(nodes)
	}
	want := refPageRank(edges, prev, nodes, p.Damping)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("rank[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Hubs should out-rank the tail after one iteration from uniform?
	// In-degree is uniform here, so just check mass is positive everywhere.
	for i, v := range got {
		if v <= 0 {
			t.Errorf("rank[%d] = %v", i, v)
		}
	}
}

func TestPageRankSecondIteration(t *testing.T) {
	const nodes = 25
	ix, src, edges := buildGraph(t, nodes, 800)
	p1 := PageRankParams{Nodes: nodes, Damping: 0.85}
	r1, _ := NewPageRankReducer(p1)
	obj1, err := core.Run(core.EngineConfig{Reducer: r1, Workers: 2, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	ranks1 := NextRanks(obj1.(*PageRankObject), p1.Damping)

	p2 := PageRankParams{Nodes: nodes, Damping: 0.85, Ranks: ranks1}
	r2, err := NewPageRankReducer(p2)
	if err != nil {
		t.Fatal(err)
	}
	obj2, err := core.Run(core.EngineConfig{Reducer: r2, Workers: 2, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	got := NextRanks(obj2.(*PageRankObject), p2.Damping)
	prev := make([]float64, nodes)
	for i := range prev {
		prev[i] = 1 / float64(nodes)
	}
	want := refPageRank(edges, refPageRank(edges, prev, nodes, 0.85), nodes, 0.85)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("iter-2 rank[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPageRankCodecRoundTrip(t *testing.T) {
	p := PageRankParams{Nodes: 5, Damping: 0.85}
	r, _ := NewPageRankReducer(p)
	obj := r.NewObject().(*PageRankObject)
	obj.Incoming[3] = 0.125
	enc, err := r.Encode(obj)
	if err != nil {
		t.Fatal(err)
	}
	// One bitmap byte for 5 nodes plus the single non-zero entry.
	if len(enc) != 9 {
		t.Errorf("encoded size = %d, want 9", len(enc))
	}
	back, err := r.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.(*PageRankObject).Incoming[3] != 0.125 {
		t.Errorf("round trip = %+v", back)
	}
	if _, err := r.Decode(enc[:5]); err == nil {
		t.Error("truncated object accepted")
	}
}

func TestPageRankValidation(t *testing.T) {
	bad := []PageRankParams{
		{Nodes: 0, Damping: 0.85},
		{Nodes: 5, Damping: 0},
		{Nodes: 5, Damping: 1},
		{Nodes: 5, Damping: 0.85, Ranks: []float64{1}},
	}
	for i, p := range bad {
		if _, err := NewPageRankReducer(p); err == nil {
			t.Errorf("params %d accepted", i)
		}
	}
	// Bad edges are rejected.
	r, _ := NewPageRankReducer(PageRankParams{Nodes: 2, Damping: 0.85})
	unit := make([]byte, workload.EdgeUnitSize)
	unit[0] = 9 // src out of range
	if err := r.LocalReduce(r.NewObject(), unit); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestPageRankMRMatchesGR(t *testing.T) {
	const nodes = 30
	ix, src, _ := buildGraph(t, nodes, 600)
	p := PageRankParams{Nodes: nodes, Damping: 0.85}
	r, _ := NewPageRankReducer(p)
	grObj, err := core.Run(core.EngineConfig{Reducer: r, Workers: 2, UnitSize: ix.UnitSize}, ix, src)
	if err != nil {
		t.Fatal(err)
	}
	g := grObj.(*PageRankObject)
	for _, combine := range []bool{false, true} {
		job, err := PageRankMRJob(p, combine)
		if err != nil {
			t.Fatal(err)
		}
		job.Workers = 2
		res, err := mapreduce.Run(job, ix, src)
		if err != nil {
			t.Fatal(err)
		}
		mrObj, err := PageRankFromMR(res.Output, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Incoming {
			if math.Abs(g.Incoming[i]-mrObj.Incoming[i]) > 1e-9 {
				t.Errorf("combine=%v node %d: GR %v, MR %v", combine, i, g.Incoming[i], mrObj.Incoming[i])
			}
		}
	}
}

func TestPageRankRegistry(t *testing.T) {
	enc, err := EncodePageRankParams(PageRankParams{Nodes: 10, Damping: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewReducer(PageRankReducerName, enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.(*PageRankReducer).Params.Nodes != 10 {
		t.Errorf("registry params = %+v", r.(*PageRankReducer).Params)
	}
}

// TestPageRankSparseCodecsLossless runs two real iterations and checks that
// the reduction object and the rank vector survive their sparse layouts bit
// for bit, at exactly the size the layout promises: nodes without
// contributions cost one bitmap bit in the object, and nodes without
// in-links — whose rank is exactly (1-d)/N — one bit in the params.
func TestPageRankSparseCodecsLossless(t *testing.T) {
	const nodes = 400
	ix, src, _ := buildGraph(t, nodes, 300)
	var ranks, prevIn []float64
	for iter := 0; iter < 2; iter++ {
		p := PageRankParams{Nodes: nodes, Damping: 0.85, Ranks: ranks}
		params, err := EncodePageRankParams(p)
		if err != nil {
			t.Fatal(err)
		}
		wantParams := pageRankParamsHeader
		if ranks != nil {
			// Exactly the nodes that received a contribution carry a value.
			wantParams += (nodes+7)/8 + 8*nonFill(prevIn, 0)
		}
		if len(params) != wantParams {
			t.Errorf("iter %d: params are %d bytes, want %d", iter, len(params), wantParams)
		}
		red, err := core.NewReducer(PageRankReducerName, params)
		if err != nil {
			t.Fatal(err)
		}
		got := red.(*PageRankReducer).Params
		if got.Nodes != nodes || got.Damping != p.Damping || !sameBits(got.Ranks, ranks) || (got.Ranks == nil) != (ranks == nil) {
			t.Fatalf("iter %d: params round trip = %d nodes, damping %v, %d ranks", iter, got.Nodes, got.Damping, len(got.Ranks))
		}
		obj, err := core.Run(core.EngineConfig{Reducer: red, Workers: 2, UnitSize: ix.UnitSize}, ix, src)
		if err != nil {
			t.Fatal(err)
		}
		in := obj.(*PageRankObject).Incoming
		enc, err := red.Encode(obj)
		if err != nil {
			t.Fatal(err)
		}
		zeros := 0
		for _, v := range in {
			if v == 0 {
				zeros++
			}
		}
		if zeros == 0 {
			t.Fatalf("iter %d: every node has in-links; the graph exercises no sparsity", iter)
		}
		if want := (nodes+7)/8 + 8*nonFill(in, 0); len(enc) != want {
			t.Errorf("iter %d: object is %d bytes, want %d", iter, len(enc), want)
		}
		back, err := red.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(back.(*PageRankObject).Incoming, in) {
			t.Fatalf("iter %d: object round trip changed bits", iter)
		}
		ranks, prevIn = NextRanks(obj.(*PageRankObject), p.Damping), in
	}
}

func nonFill(v []float64, fill float64) int {
	n := 0
	for _, x := range v {
		if math.Float64bits(x) != math.Float64bits(fill) {
			n++
		}
	}
	return n
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestPageRankParamsMalformed checks that the registry decoder rejects
// every params frame that is not exactly one encoding, and that a tiny
// frame claiming 2^40 nodes fails before the rank vector is allocated.
func TestPageRankParamsMalformed(t *testing.T) {
	good, err := EncodePageRankParams(PageRankParams{Nodes: 10, Damping: 0.85, Ranks: []float64{1, 2, 3, 0.015, 0.015, 0.015, 0.015, 0.015, 0.015, 0.015}})
	if err != nil {
		t.Fatal(err)
	}
	noRanks, err := EncodePageRankParams(PageRankParams{Nodes: 10, Damping: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	withHeader := func(b []byte, nodes uint64, present byte) []byte {
		b = slices.Clone(b)
		binary.LittleEndian.PutUint64(b, nodes)
		b[16] = present
		return b
	}
	huge := withHeader(good, 1<<40, 1)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"short header", good[:16], "at least 17"},
		{"bad ranks-present byte", withHeader(noRanks, 10, 2), "want 0 or 1"},
		{"trailing bytes without ranks", append(slices.Clone(noRanks), 0), "trailing"},
		{"short bitmap", good[:18], "does not fit"},
		{"truncated ranks", good[:len(good)-1], "value bytes"},
		{"trailing bytes after ranks", append(slices.Clone(good), 0), "value bytes"},
		{"padding bits past nodes", withHeader(good, 9, 1), "past 9"},
		{"nodes overflow int", withHeader(noRanks, math.MaxUint64, 0), "claim"},
		{"bitmap longer than frame", huge, "does not fit"},
	}
	for _, c := range cases {
		if _, err := core.NewReducer(PageRankReducerName, c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = core.NewReducer(PageRankReducerName, huge)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("2^40-node frame accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
		t.Errorf("rejecting a %d-byte frame that claims 2^40 nodes allocated %d bytes", len(huge), n)
	}
}

// TestKMeansAssignPointMatchesAssign pins the unrolled center search to the
// scalar Assign kernel: the same nearest center and the bit-identical squared
// distance for every point, across K values that exercise only the K%4 tail,
// exactly one 4-center pass, a pass plus a tail, and the livebench shape.
// Duplicate centers and points sitting exactly on a center create exact
// ties, which must resolve to the lower center index as Assign does.
func TestKMeansAssignPointMatchesAssign(t *testing.T) {
	const dim, points = 8, 20_000
	rng := rand.New(rand.NewSource(12))
	for _, k := range []int{1, 3, 4, 5, 7, 192} {
		centers := make([][]float64, k)
		for c := range centers {
			if c >= 2 && c%3 == 2 {
				// An exact duplicate of an earlier center, sometimes in the
				// same 4-center pass and sometimes in an earlier one.
				centers[c] = append([]float64(nil), centers[rng.Intn(c)]...)
				continue
			}
			centers[c] = make([]float64, dim)
			for i := range centers[c] {
				centers[c][i] = float64(rng.Float32())
			}
		}
		twin := make([]bool, k) // center c has an identical partner
		for a := range centers {
			for b := range centers[:a] {
				if slices.Equal(centers[a], centers[b]) {
					twin[a], twin[b] = true, true
				}
			}
		}
		r, err := NewKMeansReducer(KMeansParams{K: k, Dim: dim, Centers: centers})
		if err != nil {
			t.Fatal(err)
		}
		unit := make([]byte, 0, 4*dim)
		pt := make([]float64, dim)
		ties := 0
		for n := 0; n < points; n++ {
			unit = unit[:0]
			onCenter := n%8 == 0
			c := centers[rng.Intn(k)]
			for i := 0; i < dim; i++ {
				v := rng.Float32()
				if onCenter {
					v = float32(c[i]) // exact: centers are float32 values
				}
				unit = core.AppendFloat32(unit, v)
				pt[i] = float64(v)
			}
			wantK, wantD := r.Assign(unit)
			gotK, gotD := r.assignPoint(pt)
			if gotK != wantK || math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("K=%d point %d: assignPoint = (%d, %v), Assign = (%d, %v)", k, n, gotK, gotD, wantK, wantD)
			}
			if twin[wantK] {
				ties++
			}
		}
		if k >= 3 && ties == 0 {
			t.Errorf("K=%d: no exact-tie points exercised", k)
		}
	}
}
