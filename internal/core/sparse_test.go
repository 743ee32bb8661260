package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// specialFloats are the values whose bits a float comparison would blur:
// signed zeros, NaNs with distinct payloads, infinities and subnormals.
var specialFloats = []float64{
	0, math.Copysign(0, -1),
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, 1, -1, 0.15 / 1024,
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestSparseFloat64sRoundTrip is the codec's property test: random vectors
// of every length around the byte and word boundaries, at densities from
// all-fill to no-fill, with fills and entries drawn from the special
// values, decode to the bit-identical vector from exactly the size the
// layout promises.
func TestSparseFloat64sRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 1000, 4099}
	densities := []float64{0, 0.01, 0.39, 0.5, 0.99, 1}
	for _, fill := range specialFloats {
		for _, n := range lengths {
			for _, density := range densities {
				v := make([]float64, n)
				set := 0
				for i := range v {
					v[i] = fill
					if rng.Float64() < density {
						for math.Float64bits(v[i]) == math.Float64bits(fill) {
							if rng.Intn(2) == 0 {
								v[i] = specialFloats[rng.Intn(len(specialFloats))]
							} else {
								v[i] = math.Float64frombits(rng.Uint64())
							}
						}
						set++
					}
				}
				prefix := []byte("hdr")
				enc := AppendSparseFloat64s(prefix, v, fill)
				if !bytes.Equal(enc[:len(prefix)], prefix) {
					t.Fatalf("n=%d: prefix clobbered", n)
				}
				if want := len(prefix) + (n+7)/8 + 8*set; len(enc) != want {
					t.Fatalf("fill=%v n=%d set=%d: encoded %d bytes, want %d", fill, n, set, len(enc), want)
				}
				got, err := SparseFloat64s(enc[len(prefix):], n, fill)
				if err != nil {
					t.Fatalf("fill=%v n=%d density=%v: %v", fill, n, density, err)
				}
				if !sameBits(got, v) {
					t.Fatalf("fill=%v n=%d density=%v: round trip changed bits", fill, n, density)
				}
			}
		}
	}
}

// TestSparseFloat64sAllocs: encoding sizes its buffer in a counting pass,
// so it allocates once and never grows; decoding allocates only the vector.
// Under the race detector sync.Pool drops Puts, so only decoding is
// checked there.
func TestSparseFloat64sAllocs(t *testing.T) {
	v := make([]float64, 4099)
	for i := range v {
		if i%5 < 2 {
			v[i] = float64(i)
		}
	}
	var enc []byte
	a := testing.AllocsPerRun(20, func() { enc = AppendSparseFloat64s(nil, v, 0) })
	if a != 1 && !raceEnabled { // the mask scratch is pooled
		t.Errorf("encode allocates %v times, want 1", a)
	}
	if a := testing.AllocsPerRun(20, func() { _, _ = SparseFloat64s(enc, len(v), 0) }); a != 1 {
		t.Errorf("decode allocates %v times, want 1", a)
	}
}

// TestSparseFloat64sMalformed checks that decoding rejects every frame that
// is not exactly one encoding.
func TestSparseFloat64sMalformed(t *testing.T) {
	v := make([]float64, 70)
	v[3], v[69] = 2.5, -1
	good := AppendSparseFloat64s(nil, v, 0) // 9-byte bitmap + 2 values
	withBit := func(bit int) []byte {
		b := bytes.Clone(good)
		b[bit/8] |= 1 << (bit % 8)
		return b
	}
	cases := []struct {
		name string
		data []byte
		n    int
		want string
	}{
		{"short bitmap", good[:8], 70, "does not fit"},
		{"truncated values", good[:len(good)-1], 70, "value bytes"},
		{"trailing bytes", append(bytes.Clone(good), 0), 70, "value bytes"},
		{"padding bit past n", withBit(71), 70, "past 70"},
		{"marked entry equals fill", append(withBit(5), make([]byte, 8)...), 70, "equals the fill"},
		{"negative length", nil, -1, "does not fit"},
		{"huge length", good, 1 << 40, "does not fit"},
	}
	for _, c := range cases {
		if _, err := SparseFloat64s(c.data, c.n, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
	}
	if _, err := SparseFloat64s(good, 70, 0); err != nil {
		t.Errorf("valid frame rejected: %v", err)
	}
}

// FuzzSparseFloat64s: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to the same bytes, so the layout has one encoding per
// vector.
func FuzzSparseFloat64s(f *testing.F) {
	for _, n := range []int{0, 1, 8, 65} {
		v := make([]float64, n)
		for i := range v {
			if i%3 == 0 {
				v[i] = specialFloats[i%len(specialFloats)]
			}
		}
		f.Add(AppendSparseFloat64s(nil, v, 0), uint16(n), uint64(0))
		f.Add(AppendSparseFloat64s(nil, v, 1), uint16(n), math.Float64bits(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint16, fillBits uint64) {
		fill := math.Float64frombits(fillBits)
		v, err := SparseFloat64s(data, int(n), fill)
		if err != nil {
			return
		}
		if enc := AppendSparseFloat64s(nil, v, fill); !bytes.Equal(enc, data) {
			t.Fatalf("decode→encode changed the bytes:\n in %x\nout %x", data, enc)
		}
	})
}
