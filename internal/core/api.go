// Package core implements the paper's primary contribution: the Generalized
// Reduction API and its execution engine.
//
// Generalized Reduction collapses Map-Reduce's map, combine and reduce into
// a single step: each data element is processed and folded into a per-worker
// REDUCTION OBJECT immediately, before the next element is touched, so no
// intermediate (key, value) pairs are materialized, sorted, grouped or
// shuffled. After all elements are processed, a GLOBAL REDUCTION merges the
// reduction objects from all workers (and, across clusters, from all
// clusters) into the final result. Avoiding intermediate state is what makes
// the model attractive for cloud bursting: the only inter-cluster data
// exchange is one reduction object per cluster.
//
// Application developers provide:
//
//   - Reduction Object — any Go value; allocation is owned by the framework
//     via Reducer.NewObject.
//   - Local Reduction — Reducer.LocalReduce folds one data unit into the
//     object. The result must be independent of the order in which units
//     are processed on each processor; the runtime chooses the order.
//   - Global Reduction — Reducer.GlobalReduce merges two objects. Common
//     combination functions (aggregation, concatenation, element-wise sums)
//     are provided in this package.
//   - Encode/Decode — serialize objects for inter-cluster transfer.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// Object is an application-defined reduction object. The framework treats
// it as opaque; only the owning Reducer interprets it.
type Object any

// Reducer is the application contract of the Generalized Reduction API.
// Implementations must allow concurrent use: the engine calls LocalReduce
// from many workers, but never concurrently on the same Object.
type Reducer interface {
	// NewObject allocates a fresh reduction object in its identity state:
	// merging it into any object must leave the other object's value
	// unchanged.
	NewObject() Object

	// LocalReduce folds one data unit (a fixed-size element in the dataset's
	// binary layout) into obj. The outcome must not depend on unit order.
	LocalReduce(obj Object, unit []byte) error

	// GlobalReduce merges src into dst. It must be associative, and
	// commutative up to equivalent final results, so that cluster-level and
	// head-level merges may happen in any order.
	GlobalReduce(dst, src Object) error

	// Encode serializes obj for transfer between masters and the head node.
	Encode(obj Object) ([]byte, error)

	// Decode reverses Encode.
	Decode(data []byte) (Object, error)
}

// GroupReducer is an optional fast path: a Reducer that can fold an entire
// unit group (a cache-sized run of whole units) in one call, avoiding
// per-unit dispatch overhead. The engine uses it when available.
type GroupReducer interface {
	Reducer
	// LocalReduceGroup folds every unit in group (len(group) is a multiple
	// of unitSize) into obj.
	LocalReduceGroup(obj Object, group []byte, unitSize int) error
}

// Errors returned by the engine and registry.
var (
	ErrFinished   = errors.New("core: engine already finished")
	ErrNoReducer  = errors.New("core: no reducer registered under that name")
	ErrBadPayload = errors.New("core: malformed payload")
)

// ---------------------------------------------------------------------------
// Reducer registry — lets daemons instantiate application reducers by name
// from a job specification received over the wire.

// Factory constructs a reducer from application-specific parameters.
type Factory func(params []byte) (Reducer, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register makes a reducer factory available under name. It panics if the
// name is already taken; registration happens in package init functions.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: duplicate reducer registration %q", name))
	}
	registry[name] = f
}

// NewReducer instantiates the reducer registered under name.
func NewReducer(name string, params []byte) (Reducer, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoReducer, name)
	}
	return f(params)
}

// RegisteredReducers returns the sorted names of all registered reducers.
func RegisteredReducers() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// Common combination functions. These cover the "several common combination
// functions already implemented in the generalized reduction system library"
// that users may pick for their GlobalReduce.

// SumFloat64s adds src into dst element-wise; the slices must have equal
// length.
func SumFloat64s(dst, src []float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("core: length mismatch %d vs %d", len(dst), len(src))
	}
	for i, v := range src {
		dst[i] += v
	}
	return nil
}

// SumInt64s adds src into dst element-wise; the slices must have equal length.
func SumInt64s(dst, src []int64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("core: length mismatch %d vs %d", len(dst), len(src))
	}
	for i, v := range src {
		dst[i] += v
	}
	return nil
}

// MergeCounts adds every count in src into dst.
func MergeCounts[K comparable](dst, src map[K]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// MergeSums adds every value in src into dst.
func MergeSums[K comparable](dst, src map[K]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// Concat appends src to dst and returns the extended slice.
func Concat[T any](dst, src []T) []T { return append(dst, src...) }

// ---------------------------------------------------------------------------
// Float encoding helpers shared by the built-in applications' codecs.

// AppendFloat64 appends the little-endian IEEE-754 encoding of v to b.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// Float64At decodes the float64 at offset off in b.
func Float64At(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

// AppendSparseFloat64s appends v to b in the sparse vector layout and
// returns the extended slice. The layout is a bitmap of ceil(len(v)/8)
// bytes, in which bit i%8 of byte i/8 is set when the bits of v[i] differ
// from those of fill, followed by the little-endian IEEE-754 encodings of
// the set entries in index order. Entries are compared with
// math.Float64bits, so -0.0, NaN payloads, ±Inf and subnormals round-trip
// exactly. The length is not encoded: the decoder is told it. A counting
// pass sizes the result, so b grows at most once.
func AppendSparseFloat64s(b []byte, v []float64, fill float64) []byte {
	fb := math.Float64bits(fill)
	full, words := len(v)/64, (len(v)+63)/64

	// The counting pass keeps each word's mask, so the values pass below
	// reads only the entries it writes.
	sp := sparseMasks.Get().(*[]uint64)
	masks := slices.Grow((*sp)[:0], words)[:words]
	set := 0
	for w := 0; w < full; w++ {
		masks[w] = blockMask((*[64]float64)(v[64*w:]), fb)
		set += bits.OnesCount64(masks[w])
	}
	if full < words {
		var tail [64]float64 // the short last word, padded with fill
		for j := range tail {
			tail[j] = fill
		}
		copy(tail[:], v[64*full:])
		masks[full] = blockMask(&tail, fb)
		set += bits.OnesCount64(masks[full])
	}

	start, bm := len(b), (len(v)+7)/8
	b = slices.Grow(b, bm+8*set)[:start+bm+8*set]
	bitmap, vals := b[start:start+bm], b[start+bm:]
	k := 0
	for w, mask := range masks {
		putBitmapWord(bitmap, w, mask)
		for m := mask; m != 0; m &= m - 1 {
			binary.LittleEndian.PutUint64(vals[k:], math.Float64bits(v[64*w+bits.TrailingZeros64(m)]))
			k += 8
		}
	}
	*sp = masks
	sparseMasks.Put(sp)
	return b
}

// sparseMasks recycles AppendSparseFloat64s's per-word masks: one word per
// 64 entries, so the encoder allocates only the buffer it returns.
var sparseMasks = sync.Pool{New: func() any { return new([]uint64) }}

// blockMask returns the bitmap word of 64 entries: bit j is set when the
// bits of block[j] differ from fb. Each step compares 8 entries into one
// byte with constant shifts, which keeps the compares independent of each
// other and of the loop-carried mask.
func blockMask(block *[64]float64, fb uint64) uint64 {
	var mask uint64
	for g := 0; g < 64; g += 8 {
		q := (*[8]float64)(block[g : g+8])
		m := differs(math.Float64bits(q[0]), fb) |
			differs(math.Float64bits(q[1]), fb)<<1 |
			differs(math.Float64bits(q[2]), fb)<<2 |
			differs(math.Float64bits(q[3]), fb)<<3 |
			differs(math.Float64bits(q[4]), fb)<<4 |
			differs(math.Float64bits(q[5]), fb)<<5 |
			differs(math.Float64bits(q[6]), fb)<<6 |
			differs(math.Float64bits(q[7]), fb)<<7
		mask |= m << g
	}
	return mask
}

// SparseFloat64s decodes the n-entry vector that AppendSparseFloat64s
// wrote with the same fill. data must be exactly that encoding: a short
// bitmap, truncated or trailing values, bitmap bits set past n, and an
// explicit entry whose bits equal fill's (which the encoder never writes)
// are errors, so every accepted input re-encodes to the same bytes. The
// bitmap length is checked against data before anything is allocated.
func SparseFloat64s(data []byte, n int, fill float64) ([]float64, error) {
	if n < 0 || uint64(n) > 8*uint64(len(data)) {
		return nil, fmt.Errorf("core: sparse vector of %d entries does not fit %d bytes", n, len(data))
	}
	bm := (n + 7) / 8
	bitmap, vals := data[:bm], data[bm:]
	words := (n + 63) / 64
	set := 0
	for w := 0; w < words; w++ {
		set += bits.OnesCount64(bitmapWord(bitmap, w))
	}
	if tail := n % 64; tail != 0 && bitmapWord(bitmap, words-1)>>tail != 0 {
		return nil, fmt.Errorf("core: sparse vector bitmap marks entries past %d", n)
	}
	if len(vals) != 8*set {
		return nil, fmt.Errorf("core: sparse vector marks %d entries but carries %d value bytes", set, len(vals))
	}
	out := make([]float64, n)
	fb := math.Float64bits(fill)
	if fb != 0 {
		for i := range out {
			out[i] = fill
		}
	}
	for w := 0; w < words; w++ {
		for m := bitmapWord(bitmap, w); m != 0; m &= m - 1 {
			x := binary.LittleEndian.Uint64(vals)
			if x == fb {
				return nil, fmt.Errorf("core: sparse vector entry %d is marked but equals the fill", 64*w+bits.TrailingZeros64(m))
			}
			out[64*w+bits.TrailingZeros64(m)] = math.Float64frombits(x)
			vals = vals[8:]
		}
	}
	return out, nil
}

// differs is 1 when a != b and 0 otherwise. The compiler turns it into a
// compare and SETNE, not a branch: the vectors the sparse codec sees mix
// fill and non-fill entries unpredictably.
func differs(a, b uint64) uint64 {
	var d uint64
	if a != b {
		d = 1
	}
	return d
}

// bitmapWord reads bitmap word w: entries 64w to 64w+63, little-endian. The
// last word may be short.
func bitmapWord(bitmap []byte, w int) uint64 {
	if b := bitmap[8*w:]; len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var word uint64
	for k, c := range bitmap[8*w:] {
		word |= uint64(c) << (8 * k)
	}
	return word
}

// putBitmapWord is bitmapWord's inverse.
func putBitmapWord(bitmap []byte, w int, word uint64) {
	if b := bitmap[8*w:]; len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, word)
		return
	}
	for k := range bitmap[8*w:] {
		bitmap[8*w+k] = byte(word >> (8 * k))
	}
}

// AppendFloat32 appends the little-endian IEEE-754 encoding of v to b.
func AppendFloat32(b []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

// Float32At decodes the float32 at offset off in b.
func Float32At(b []byte, off int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
}
