package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
)

// fastLinks keep the tests quick while still crossing the delay line and
// the netem shapers.
var fastLinks = links{
	wan:      link{latency: time.Millisecond, rate: 256 << 20},
	cloudLAN: link{latency: 0, rate: 0},
}

func tinyBench(t *testing.T, name string) *bench {
	t.Helper()
	b, err := newBench(name, 7, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs one tiny repetition of each workload untraced and traced;
// every query must pass its correctness gate.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		b := tinyBench(t, name)
		for _, traced := range []bool{false, true} {
			var p *probe
			if traced {
				p = newProbe()
			}
			var errs bytes.Buffer
			r, err := runRep(b, fastLinks, p, &errs)
			if p != nil {
				p.release()
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if r.failed != 0 || r.queries == 0 {
				t.Errorf("%s traced=%v: %d of %d queries failed:\n%s", name, traced, r.failed, r.queries, errs.String())
			}
			if got := r.jobs(); got != r.queries*b.ds.ix.NumChunks() {
				t.Errorf("%s traced=%v: %d jobs folded, want %d", name, traced, got, r.queries*b.ds.ix.NumChunks())
			}
		}
	}
}

// TestTimedReducerTransparent folds each workload's data single-threaded
// through the shipped reducer and through the timed wrapper: the encoded
// reduction objects must be identical, and so must a decode/encode round
// trip through the wrapper.
func TestTimedReducerTransparent(t *testing.T) {
	for _, name := range workloadNames {
		b := tinyBench(t, name)
		qs, err := b.next(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := newProbe()
		for _, q := range qs {
			plain, err := reference(b.ds, q.reducer)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := core.NewReducer(timedApp, timedParams{probe: p.id, query: 0, cluster: 1, app: q.app, params: q.params}.encode())
			if err != nil {
				t.Fatal(err)
			}
			timed, err := reference(b.ds, tr.(core.GroupReducer))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := q.reducer.Encode(plain)
			got, err := tr.Encode(timed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: timed reducer's object differs (%d vs %d bytes)", name, len(got), len(want))
			}
			back, err := tr.Decode(got)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := tr.Encode(back); !bytes.Equal(again, want) {
				t.Errorf("%s: decode/encode through the timed reducer changed the object", name)
			}
		}
		if p.fold.n == 0 || p.encode.n == 0 || p.decode.n == 0 {
			t.Errorf("%s: timed reducer recorded folds=%d encodes=%d decodes=%d", name, p.fold.n, p.encode.n, p.decode.n)
		}
		p.release()
	}
}

// TestTracedRunTransparent runs the order-independent workloads (kNN and
// histograms, whose objects are exact in any fold order) through the full
// deployment with and without the decorators: both must reproduce the
// reference encoding byte for byte, so they match each other.
func TestTracedRunTransparent(t *testing.T) {
	for _, name := range []string{"knn-wan", "multi-small"} {
		b := tinyBench(t, name)
		qs, err := b.next(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			var p *probe
			if traced {
				p = newProbe()
			}
			var objs []core.Object
			check := qs[0].check
			b.next = func(round int, _ []core.Object) ([]query, error) {
				q := qs[0]
				q.check = func(o core.Object) error { objs = append(objs, o); return check(o) }
				return []query{q}, nil
			}
			b.rounds = 1
			r, err := runRep(b, fastLinks, p, io.Discard)
			if p != nil {
				p.release()
			}
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || len(objs) != 1 {
				t.Fatalf("%s traced=%v: %d failed, %d objects", name, traced, r.failed, len(objs))
			}
			got, _ := qs[0].reducer.Encode(objs[0])
			want, _ := qs[0].reducer.Encode(mustReference(t, b.ds, qs[0].reducer))
			if !bytes.Equal(got, want) {
				t.Errorf("%s traced=%v: object differs from the reference", name, traced)
			}
		}
	}
}

func mustReference(t *testing.T, ds *dataset, r core.GroupReducer) core.Object {
	t.Helper()
	obj, err := reference(ds, r)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestTracedSourceTransparent reads every chunk through the source
// decorator and directly: same bytes, and the reads are counted.
func TestTracedSourceTransparent(t *testing.T) {
	b := tinyBench(t, "knn-wan")
	p := newProbe()
	defer p.release()
	tc := p.client(clLocal, nil)
	srcs := tc.sources(map[int]chunk.Source{siteLocal: b.ds.local})
	n := 0
	for fi, f := range b.ds.ix.Files {
		if b.ds.placement[fi] != siteLocal {
			continue
		}
		for _, ref := range f.Chunks {
			want, err := b.ds.local.ReadChunk(ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := srcs[siteLocal].ReadChunk(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("chunk %v differs through the decorator", ref)
			}
			n++
		}
	}
	if st := p.retr["local.own"]; st == nil || st.n != int64(n) {
		t.Errorf("decorator counted %v reads, want %d", st, n)
	}
}

// TestLagConn checks the delay line passes bytes through unchanged and
// costs a request/response exchange at least one round trip.
func TestLagConn(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, peer, err := dialPair(l)
	if err != nil {
		t.Fatal(err)
	}
	const lat = 5 * time.Millisecond
	c := newLagConn(raw, lat)
	defer c.Close()
	defer peer.Close()

	want := make([]byte, 3*segBytes+17)
	r := rand.New(rand.NewPCG(1, 2))
	for i := range want {
		want[i] = byte(r.Uint32())
	}
	go func() {
		// Echo everything back.
		buf := make([]byte, len(want))
		if _, err := io.ReadFull(peer, buf); err == nil {
			_, _ = peer.Write(buf)
		}
	}()
	start := time.Now()
	if _, err := c.Write(want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 2*lat {
		t.Errorf("round trip took %v, want at least %v", rtt, 2*lat)
	}
	if !bytes.Equal(got, want) {
		t.Error("bytes changed crossing the delay line")
	}
}

// TestCovered checks the interval union behind the self times.
func TestCovered(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 20}, {start: 15, end: 30}, {start: 50, end: 60}, {start: 90, end: 120}, {start: -5, end: 2}}
	// [10,30] + [50,60] + [90,100] + [0,2], clipped to the parent.
	if got := covered(parent, kids); got != 42 {
		t.Errorf("covered = %v, want 42", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkJSONMetrics checks every metric BENCHMARK.json names is
// well formed, and that a run emits exactly those metrics with the same
// units: end-to-end untraced, per-layer traced.
func TestBenchmarkJSONMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !equalStrings(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for mode, listed := range map[bool][]struct{ Name, Unit, Better string }{false: bj.EndToEnd, true: bj.PerLayer} {
		want := map[string]string{}
		for _, m := range listed {
			if !metricName.MatchString(m.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
			}
			want[m.Name] = m.Unit
		}
		res, err := measure(tinyBench(t, "multi-small"), fastLinks, 0, mode, 7, "", io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("traced=%v: run failed its correctness gate", mode)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: run emits %d metrics, BENCHMARK.json lists %d", mode, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			got, ok := res.Metrics[name]
			if !ok {
				t.Errorf("traced=%v: %s is not emitted", mode, name)
			} else if got.Unit != unit {
				t.Errorf("traced=%v: %s emitted in %s, BENCHMARK.json says %s", mode, name, got.Unit, unit)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
