package apps

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/workload"
)

// PageRankParams configures one PageRank iteration over an edge-record
// dataset (see workload.PowerLawGraph): each unit carries (src, dst,
// outdeg(src)), so a full iteration is a single pass over the edges.
// Ranks holds the previous iteration's rank vector; nil means the uniform
// starting vector 1/N.
type PageRankParams struct {
	Nodes   int
	Damping float64
	Ranks   []float64
}

// Validate checks the parameters.
func (p PageRankParams) Validate() error {
	if p.Nodes <= 0 {
		return fmt.Errorf("apps: pagerank Nodes must be positive, got %d", p.Nodes)
	}
	if p.Damping <= 0 || p.Damping >= 1 {
		return fmt.Errorf("apps: pagerank damping %v outside (0,1)", p.Damping)
	}
	if p.Ranks != nil && len(p.Ranks) != p.Nodes {
		return fmt.Errorf("apps: pagerank rank vector has %d entries, want %d", len(p.Ranks), p.Nodes)
	}
	return nil
}

// PageRankObject is the reduction object: the vector of incoming rank
// contributions for every node. With one entry per node this is the "very
// large reduction object" whose inter-cluster exchange dominates the
// application's sync time in the paper. A site's vector is non-zero only at
// the destinations of the edges it folded, which the wire layout exploits
// (see Encode).
type PageRankObject struct {
	Incoming []float64
}

// PageRankReducer implements core.Reducer for one PageRank iteration.
type PageRankReducer struct {
	Params PageRankParams
	prev   []float64
}

// NewPageRankReducer validates params and returns a reducer; a nil rank
// vector starts uniform.
func NewPageRankReducer(p PageRankParams) (*PageRankReducer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	prev := p.Ranks
	if prev == nil {
		prev = make([]float64, p.Nodes)
		for i := range prev {
			prev[i] = 1 / float64(p.Nodes)
		}
	}
	return &PageRankReducer{Params: p, prev: prev}, nil
}

// NewObject implements core.Reducer.
func (r *PageRankReducer) NewObject() core.Object {
	return &PageRankObject{Incoming: make([]float64, r.Params.Nodes)}
}

// LocalReduce implements core.Reducer: fold one edge's contribution.
func (r *PageRankReducer) LocalReduce(obj core.Object, unit []byte) error {
	o := obj.(*PageRankObject)
	e := workload.DecodeEdge(unit)
	if int(e.Src) >= r.Params.Nodes || int(e.Dst) >= r.Params.Nodes {
		return fmt.Errorf("apps: edge %v outside graph of %d nodes", e, r.Params.Nodes)
	}
	if e.SrcOutDeg == 0 {
		return fmt.Errorf("apps: edge from %d carries zero out-degree", e.Src)
	}
	o.Incoming[e.Dst] += r.prev[e.Src] / float64(e.SrcOutDeg)
	return nil
}

// LocalReduceGroup implements core.GroupReducer.
func (r *PageRankReducer) LocalReduceGroup(obj core.Object, group []byte, unitSize int) error {
	o := obj.(*PageRankObject)
	n := uint32(r.Params.Nodes)
	for off := 0; off < len(group); off += unitSize {
		e := workload.DecodeEdge(group[off:])
		if e.Src >= n || e.Dst >= n || e.SrcOutDeg == 0 {
			return r.LocalReduce(obj, group[off:off+unitSize]) // produce the detailed error
		}
		o.Incoming[e.Dst] += r.prev[e.Src] / float64(e.SrcOutDeg)
	}
	return nil
}

// GlobalReduce implements core.Reducer: vector addition.
func (r *PageRankReducer) GlobalReduce(dst, src core.Object) error {
	return core.SumFloat64s(dst.(*PageRankObject).Incoming, src.(*PageRankObject).Incoming)
}

// Encode implements core.Reducer: the contribution vector in core's sparse
// layout with fill 0 (core.AppendSparseFloat64s) — a bitmap of Nodes bits
// marking the nodes that received a non-zero contribution, then those
// contributions as little-endian float64s. The encoding is lossless, and
// with no zero entry at all it is Nodes/8 bytes larger than the dense
// vector.
func (r *PageRankReducer) Encode(obj core.Object) ([]byte, error) {
	return core.AppendSparseFloat64s(nil, obj.(*PageRankObject).Incoming, 0), nil
}

// Decode implements core.Reducer.
func (r *PageRankReducer) Decode(data []byte) (core.Object, error) {
	in, err := core.SparseFloat64s(data, r.Params.Nodes, 0)
	if err != nil {
		return nil, fmt.Errorf("apps: pagerank object: %w", err)
	}
	return &PageRankObject{Incoming: in}, nil
}

var (
	_ core.Reducer      = (*PageRankReducer)(nil)
	_ core.GroupReducer = (*PageRankReducer)(nil)
)

// NextRanks turns accumulated contributions into the next rank vector:
// rank[i] = (1-d)/N + d·incoming[i]. Mass from dangling nodes (out-degree
// zero) is not redistributed — the standard simplification for single-pass
// edge-stream PageRank; rank mass then sums to slightly under 1.
func NextRanks(obj *PageRankObject, damping float64) []float64 {
	n := len(obj.Incoming)
	ranks := make([]float64, n)
	base := rankBase(n, damping)
	for i, in := range obj.Incoming {
		ranks[i] = base + damping*in
	}
	return ranks
}

// rankBase is (1-d)/N, the rank NextRanks gives a node with no incoming
// contribution. The params codec uses it as the fill of the rank vector, so
// every such node's rank equals the fill bit for bit.
func rankBase(nodes int, damping float64) float64 { return (1 - damping) / float64(nodes) }

// PageRankReducerName is the registry name of the PageRank application.
const PageRankReducerName = "pagerank"

// pageRankParamsHeader is the fixed part of the params layout: Nodes
// (uint64), Damping (float64 bits), both little-endian, and a byte that is
// 1 when a rank vector follows.
const pageRankParamsHeader = 17

// EncodePageRankParams serializes p for a JobSpec: the fixed header, then,
// when p.Ranks is set, the ranks in core's sparse layout with fill (1-d)/N.
// Every node without in-links holds exactly that rank, so those nodes cost
// one bitmap bit each.
func EncodePageRankParams(p PageRankParams) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, pageRankParamsHeader)
	binary.LittleEndian.PutUint64(buf, uint64(p.Nodes))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Damping))
	if p.Ranks == nil {
		return buf, nil
	}
	buf[16] = 1
	return core.AppendSparseFloat64s(buf, p.Ranks, rankBase(p.Nodes, p.Damping)), nil
}

// decodePageRankParams is EncodePageRankParams' inverse. It rejects any
// frame that is not exactly one encoding, and it checks a claimed Nodes
// against the frame before allocating the rank vector.
func decodePageRankParams(data []byte) (PageRankParams, error) {
	if len(data) < pageRankParamsHeader {
		return PageRankParams{}, fmt.Errorf("params are %d bytes, want at least %d", len(data), pageRankParamsHeader)
	}
	nodes := binary.LittleEndian.Uint64(data)
	if nodes > math.MaxInt {
		return PageRankParams{}, fmt.Errorf("params claim %d nodes", nodes)
	}
	p := PageRankParams{Nodes: int(nodes), Damping: math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))}
	switch rest := data[pageRankParamsHeader:]; data[16] {
	case 0:
		if len(rest) != 0 {
			return PageRankParams{}, fmt.Errorf("%d trailing bytes after params without ranks", len(rest))
		}
	case 1:
		ranks, err := core.SparseFloat64s(rest, p.Nodes, rankBase(p.Nodes, p.Damping))
		if err != nil {
			return PageRankParams{}, err
		}
		p.Ranks = ranks
	default:
		return PageRankParams{}, fmt.Errorf("ranks-present byte is %d, want 0 or 1", data[16])
	}
	return p, nil
}

func init() {
	core.Register(PageRankReducerName, func(params []byte) (core.Reducer, error) {
		p, err := decodePageRankParams(params)
		if err != nil {
			return nil, fmt.Errorf("apps: pagerank params: %w", err)
		}
		return NewPageRankReducer(p)
	})
}
