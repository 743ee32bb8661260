package apps

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/chunk"
	"repro/internal/core"
)

// KMeansParams configures one k-means iteration: assign every point to its
// nearest center and accumulate per-cluster sums. A driver (KMeansIterate,
// or the distributed harness) updates Centers between iterations.
type KMeansParams struct {
	K       int
	Dim     int
	Centers [][]float64
}

// Validate checks the parameters.
func (p KMeansParams) Validate() error {
	if p.K <= 0 {
		return fmt.Errorf("apps: kmeans K must be positive, got %d", p.K)
	}
	if p.Dim <= 0 {
		return fmt.Errorf("apps: kmeans Dim must be positive, got %d", p.Dim)
	}
	if len(p.Centers) != p.K {
		return fmt.Errorf("apps: kmeans has %d centers, want %d", len(p.Centers), p.K)
	}
	for i, c := range p.Centers {
		if len(c) != p.Dim {
			return fmt.Errorf("apps: kmeans center %d has %d coordinates, want %d", i, len(c), p.Dim)
		}
	}
	return nil
}

// KMeansObject is the reduction object: per-cluster coordinate sums and
// point counts, plus the summed squared error for convergence tracking.
// Its size is K×Dim floats — small and independent of the dataset size.
type KMeansObject struct {
	Sums   [][]float64
	Counts []int64
	SSE    float64

	// scratch holds the current point decoded to float64 — reduction objects
	// are per-worker, so LocalReduce can decode each unit ONCE here instead
	// of re-decoding it for every center inside the distance loop.
	scratch []float64
}

// KMeansReducer implements core.Reducer for one k-means iteration.
type KMeansReducer struct {
	Params KMeansParams
}

// NewKMeansReducer validates params and returns a reducer.
func NewKMeansReducer(p KMeansParams) (*KMeansReducer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &KMeansReducer{Params: p}, nil
}

// NewObject implements core.Reducer.
func (r *KMeansReducer) NewObject() core.Object {
	o := &KMeansObject{
		Sums:   make([][]float64, r.Params.K),
		Counts: make([]int64, r.Params.K),
	}
	for k := range o.Sums {
		o.Sums[k] = make([]float64, r.Params.Dim)
	}
	return o
}

// Assign returns the nearest center for a point unit and its squared
// distance — the application's compute kernel (K×Dim multiply-adds per
// point, which is what makes kmeans compute-bound).
func (r *KMeansReducer) Assign(unit []byte) (int, float64) {
	best, bestDist := 0, math.MaxFloat64
	for k, c := range r.Params.Centers {
		var d float64
		for i := 0; i < r.Params.Dim; i++ {
			diff := float64(core.Float32At(unit, 4*i)) - c[i]
			d += diff * diff
		}
		if d < bestDist {
			best, bestDist = k, d
		}
	}
	return best, bestDist
}

// assignPoint is Assign over an already-decoded point: K×Dim multiply-adds
// with hoisted bounds checks. Centers are scanned four per pass with an
// independent accumulator each, so the four dependency chains overlap in
// the FPU instead of serializing on one running sum. Each accumulator still
// sums its center's terms in coordinate order, and the candidates are
// compared in center order, so distances and ties resolve bit-identically
// to Assign.
func (r *KMeansReducer) assignPoint(pt []float64) (int, float64) {
	cs := r.Params.Centers
	best, bestDist := 0, math.MaxFloat64
	k := 0
	for ; k+4 <= len(cs); k += 4 {
		// One bounds check per center.
		c0, c1, c2, c3 := cs[k][:len(pt)], cs[k+1][:len(pt)], cs[k+2][:len(pt)], cs[k+3][:len(pt)]
		var d0, d1, d2, d3 float64
		for i, p := range pt {
			e0, e1, e2, e3 := p-c0[i], p-c1[i], p-c2[i], p-c3[i]
			d0 += e0 * e0
			d1 += e1 * e1
			d2 += e2 * e2
			d3 += e3 * e3
		}
		if d0 < bestDist {
			best, bestDist = k, d0
		}
		if d1 < bestDist {
			best, bestDist = k+1, d1
		}
		if d2 < bestDist {
			best, bestDist = k+2, d2
		}
		if d3 < bestDist {
			best, bestDist = k+3, d3
		}
	}
	for ; k < len(cs); k++ { // K%4 tail
		c := cs[k][:len(pt)]
		var d float64
		for i, p := range pt {
			diff := p - c[i]
			d += diff * diff
		}
		if d < bestDist {
			best, bestDist = k, d
		}
	}
	return best, bestDist
}

// LocalReduce implements core.Reducer. This is the kmeans hot loop: the unit
// is decoded to float64 once (into the per-worker object's scratch) and the
// decoded point feeds both the center search and the sum accumulation,
// instead of re-decoding the unit K+1 times.
func (r *KMeansReducer) LocalReduce(obj core.Object, unit []byte) error {
	o := obj.(*KMeansObject)
	dim := r.Params.Dim
	if cap(o.scratch) < dim {
		o.scratch = make([]float64, dim)
	}
	pt := o.scratch[:dim]
	unit = unit[:4*dim] // one bounds check for the whole decode
	for i := range pt {
		pt[i] = float64(core.Float32At(unit, 4*i))
	}
	k, d := r.assignPoint(pt)
	sums := o.Sums[k]
	for i, p := range pt {
		sums[i] += p
	}
	o.Counts[k]++
	o.SSE += d
	return nil
}

// LocalReduceGroup implements core.GroupReducer.
func (r *KMeansReducer) LocalReduceGroup(obj core.Object, group []byte, unitSize int) error {
	for off := 0; off < len(group); off += unitSize {
		if err := r.LocalReduce(obj, group[off:off+unitSize]); err != nil {
			return err
		}
	}
	return nil
}

// GlobalReduce implements core.Reducer: element-wise accumulator sums.
func (r *KMeansReducer) GlobalReduce(dst, src core.Object) error {
	d, s := dst.(*KMeansObject), src.(*KMeansObject)
	for k := range d.Sums {
		if err := core.SumFloat64s(d.Sums[k], s.Sums[k]); err != nil {
			return err
		}
	}
	if err := core.SumInt64s(d.Counts, s.Counts); err != nil {
		return err
	}
	d.SSE += s.SSE
	return nil
}

// Encode implements core.Reducer: K×(Dim float64 + int64) + SSE.
func (r *KMeansReducer) Encode(obj core.Object) ([]byte, error) {
	o := obj.(*KMeansObject)
	buf := make([]byte, 0, 8*(r.Params.K*(r.Params.Dim+1)+1))
	for k := 0; k < r.Params.K; k++ {
		for _, v := range o.Sums[k] {
			buf = core.AppendFloat64(buf, v)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Counts[k]))
	}
	return core.AppendFloat64(buf, o.SSE), nil
}

// Decode implements core.Reducer.
func (r *KMeansReducer) Decode(data []byte) (core.Object, error) {
	want := 8 * (r.Params.K*(r.Params.Dim+1) + 1)
	if len(data) != want {
		return nil, fmt.Errorf("apps: kmeans object is %d bytes, want %d", len(data), want)
	}
	o := r.NewObject().(*KMeansObject)
	off := 0
	for k := 0; k < r.Params.K; k++ {
		for i := 0; i < r.Params.Dim; i++ {
			o.Sums[k][i] = core.Float64At(data, off)
			off += 8
		}
		o.Counts[k] = int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	o.SSE = core.Float64At(data, off)
	return o, nil
}

var (
	_ core.Reducer      = (*KMeansReducer)(nil)
	_ core.GroupReducer = (*KMeansReducer)(nil)
)

// NextCenters derives the next iteration's centers from an accumulated
// object; clusters that attracted no points keep their previous center.
func NextCenters(obj *KMeansObject, prev [][]float64) [][]float64 {
	next := make([][]float64, len(obj.Sums))
	for k := range next {
		next[k] = make([]float64, len(obj.Sums[k]))
		if obj.Counts[k] == 0 {
			copy(next[k], prev[k])
			continue
		}
		for i, v := range obj.Sums[k] {
			next[k][i] = v / float64(obj.Counts[k])
		}
	}
	return next
}

// SeedCenters deterministically places k initial centers by sampling the
// first k points of the dataset.
func SeedCenters(ix *chunk.Index, src chunk.Source, k, dim int) ([][]float64, error) {
	if ix.NumChunks() == 0 {
		return nil, fmt.Errorf("apps: empty dataset")
	}
	ref := ix.Files[0].Chunks[0]
	data, err := src.ReadChunk(ref)
	if err != nil {
		return nil, err
	}
	if ref.Units < k {
		return nil, fmt.Errorf("apps: first chunk has %d points, need %d seeds", ref.Units, k)
	}
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		unit := data[c*ix.UnitSize:]
		for i := 0; i < dim; i++ {
			centers[c][i] = float64(core.Float32At(unit, 4*i))
		}
	}
	return centers, nil
}

// KMeansIterate runs full Lloyd iterations in-process (the quickstart path):
// each round applies the reducer over the dataset via core.Run and updates
// the centers, stopping early when the SSE improvement falls below tol.
func KMeansIterate(ix *chunk.Index, src chunk.Source, p KMeansParams, workers, iters int, tol float64) ([][]float64, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	prevSSE := math.MaxFloat64
	var sse float64
	for it := 0; it < iters; it++ {
		r := &KMeansReducer{Params: p}
		obj, err := core.Run(core.EngineConfig{
			Reducer:  r,
			Workers:  workers,
			UnitSize: ix.UnitSize,
		}, ix, src)
		if err != nil {
			return nil, 0, err
		}
		acc := obj.(*KMeansObject)
		p.Centers = NextCenters(acc, p.Centers)
		sse = acc.SSE
		if prevSSE-sse < tol*prevSSE {
			break
		}
		prevSSE = sse
	}
	return p.Centers, sse, nil
}

// KMeansReducerName is the registry name of the k-means application.
const KMeansReducerName = "kmeans"

// EncodeKMeansParams serializes p for a JobSpec.
func EncodeKMeansParams(p KMeansParams) ([]byte, error) { return encodeParams(p) }

func init() {
	core.Register(KMeansReducerName, func(params []byte) (core.Reducer, error) {
		var p KMeansParams
		if err := decodeParams(params, &p); err != nil {
			return nil, fmt.Errorf("apps: kmeans params: %w", err)
		}
		return NewKMeansReducer(p)
	})
}
