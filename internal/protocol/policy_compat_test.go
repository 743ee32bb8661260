package protocol

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
)

// prePolicyFrames hand-builds the PRE-POLICY binary layout of the messages
// that grew the optional trailing ElasticPolicy block, in both their
// untraced and traced trailing-field states, paired with the message a
// modern encoder would produce them from (policy zero). The layouts are the
// compat contract with already-deployed peers.
func prePolicyFrames() []struct {
	name  string
	msg   Message
	frame []byte
} {
	hello := []byte{tagHello}
	hello = appendInt(hello, 3)
	hello = appendStr(hello, "cloud")
	hello = appendInt(hello, 16)
	hello = appendInt(hello, WireBinary)
	hello = appendInt(hello, ProtoMulti)

	helloTr := append([]byte(nil), hello...)
	helloTr = appendTrace(helloTr, TraceContext{SpanID: 5})

	spec := []byte{tagJobSpec}
	spec = appendStr(spec, "knn")
	spec = appendBytes(spec, []byte{1, 2})
	spec = appendInt(spec, 4096)
	spec = appendInt(spec, 256<<10)
	spec = appendBytes(spec, nil)
	spec = appendInt(spec, 0) // reserved slot of the retired GroupSize field
	spec = appendBytes(spec, nil)
	spec = appendI64(spec, 5e8)
	spec = appendInt(spec, WireBinary)
	spec = appendInt(spec, 2)

	specTr := append([]byte(nil), spec...)
	specTr = appendTrace(specTr, TraceContext{TraceID: 3})

	base := Hello{Site: 3, Cluster: "cloud", Cores: 16, Codec: WireBinary, Proto: ProtoMulti}
	traced := base
	traced.Trace = TraceContext{SpanID: 5}
	js := JobSpec{App: "knn", Params: []byte{1, 2}, UnitSize: 4096, GroupBytes: 256 << 10,
		HeartbeatEvery: 5e8, Codec: WireBinary, Query: 2}
	jsTr := js
	jsTr.Trace = TraceContext{TraceID: 3}

	return []struct {
		name  string
		msg   Message
		frame []byte
	}{
		{"Hello", base, buildFrame(hello)},
		{"Hello+trace", traced, buildFrame(helloTr)},
		{"JobSpec", js, buildFrame(spec)},
		{"JobSpec+trace", jsTr, buildFrame(specTr)},
	}
}

// TestZeroPolicyEncodesBitIdentical: a modern encoder given a zero policy
// must emit frames byte-identical to the pre-policy layouts (untraced and
// traced alike), so a policy-free session is indistinguishable on the wire.
func TestZeroPolicyEncodesBitIdentical(t *testing.T) {
	for _, tc := range prePolicyFrames() {
		got, err := AppendFrame(nil, tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.frame) {
			t.Errorf("%s: zero-policy frame differs from pre-policy layout:\n got %x\nwant %x", tc.name, got, tc.frame)
		}
	}
}

// TestPrePolicyFramesDecodeToZeroPolicy: frames from a pre-policy peer
// decode cleanly with the policy at its zero value.
func TestPrePolicyFramesDecodeToZeroPolicy(t *testing.T) {
	for _, tc := range prePolicyFrames() {
		got, n, err := DecodeFrame(tc.frame)
		if err != nil {
			t.Fatalf("%s: decode pre-policy frame: %v", tc.name, err)
		}
		if n != len(tc.frame) {
			t.Errorf("%s: consumed %d of %d bytes", tc.name, n, len(tc.frame))
		}
		if !reflect.DeepEqual(got, tc.msg) {
			t.Errorf("%s: pre-policy decode:\n got %#v\nwant %#v", tc.name, got, tc.msg)
		}
	}
}

// TestPolicyForcesTraceBlock: a non-zero policy on an untraced message puts
// a zero trace context on the wire ahead of it, and the round trip recovers
// exactly (zero trace, full policy — including the float budget bits).
func TestPolicyForcesTraceBlock(t *testing.T) {
	in := Hello{Site: 1, Cluster: "c", Cores: 2, Proto: ProtoMulti,
		Policy: ElasticPolicy{Deadline: 120e9, Budget: 0.1, MinWorkers: 1, MaxWorkers: 8}}
	frame, err := AppendFrame(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	// Frame = len(4) + pre-policy hello body + trace(16) + policy(32).
	bare, err := AppendFrame(nil, Hello{Site: 1, Cluster: "c", Cores: 2, Proto: ProtoMulti})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(bare) + traceWire + 32; len(frame) != want {
		t.Errorf("policy frame length = %d, want %d", len(frame), want)
	}
	got, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := got.(Hello)
	if !ok || !reflect.DeepEqual(h, in) {
		t.Errorf("round trip: got %#v want %#v", got, in)
	}
	if math.Float64bits(h.Policy.Budget) != math.Float64bits(in.Policy.Budget) {
		t.Errorf("budget bits changed: %x vs %x",
			math.Float64bits(h.Policy.Budget), math.Float64bits(in.Policy.Budget))
	}
}

// Pre-policy gob shapes, as a peer compiled before ElasticPolicy existed
// would declare them.
type (
	prePolicyHello struct {
		Site    int
		Cluster string
		Cores   int
		Codec   int
		Proto   int
		Trace   TraceContext
	}
	prePolicyJobSpec struct {
		App   string
		Query int
		Trace TraceContext
	}
)

// TestGobPrePolicyPeerCompat: gob sessions interoperate in both directions
// across the policy field addition.
func TestGobPrePolicyPeerCompat(t *testing.T) {
	// Old → new: the missing Policy field reads as zero.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(prePolicyHello{Site: 3, Cluster: "cloud", Cores: 16}); err != nil {
		t.Fatal(err)
	}
	var h Hello
	if err := gob.NewDecoder(&buf).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Site != 3 || !h.Policy.Zero() {
		t.Errorf("old→new Hello = %+v", h)
	}

	// New → old: the old shape ignores the Policy field it never declared.
	buf.Reset()
	in := JobSpec{App: "knn", Query: 2, Policy: ElasticPolicy{Deadline: 60e9, MaxWorkers: 4}}
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var old prePolicyJobSpec
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatal(err)
	}
	if old.App != "knn" || old.Query != 2 {
		t.Errorf("new→old JobSpec = %+v", old)
	}
}
