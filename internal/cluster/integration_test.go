package cluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/objstore"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// sumReducer sums little-endian uint32 units.
type sumReducer struct{}

type sumObj struct{ total uint64 }

func (sumReducer) NewObject() core.Object { return &sumObj{} }
func (sumReducer) LocalReduce(obj core.Object, unit []byte) error {
	obj.(*sumObj).total += uint64(binary.LittleEndian.Uint32(unit))
	return nil
}
func (sumReducer) GlobalReduce(dst, src core.Object) error {
	dst.(*sumObj).total += src.(*sumObj).total
	return nil
}
func (sumReducer) Encode(obj core.Object) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, obj.(*sumObj).total), nil
}
func (sumReducer) Decode(data []byte) (core.Object, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("want 8 bytes, got %d", len(data))
	}
	return &sumObj{total: binary.LittleEndian.Uint64(data)}, nil
}

func init() {
	core.Register("cluster-test-sum", func([]byte) (core.Reducer, error) { return sumReducer{}, nil })
}

// buildDataset creates an index plus in-memory data whose units are
// uint32(i % 1009), and returns the expected sum.
func buildDataset(t *testing.T, units int64, fileUnits, chunkUnits int) (*chunk.Index, *chunk.MemSource, uint64) {
	t.Helper()
	ix, err := chunk.Layout("sum", units, 4, fileUnits, chunkUnits)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	var want uint64
	var unit int64
	for _, f := range ix.Files {
		buf := make([]byte, f.Size)
		for i := 0; i < int(f.Size/4); i++ {
			v := uint32(unit % 1009)
			binary.LittleEndian.PutUint32(buf[4*i:], v)
			want += uint64(v)
			unit++
		}
		if err := src.WriteFile(f.Name, buf); err != nil {
			t.Fatal(err)
		}
	}
	return ix, src, want
}

func newHead(t *testing.T, ix *chunk.Index, placement jobs.Placement, clusters int) *head.Head {
	return newHeadTuned(t, ix, placement, clusters, config.Tuning{})
}

func newHeadTuned(t *testing.T, ix *chunk.Index, placement jobs.Placement, clusters int, tn config.Tuning) *head.Head {
	t.Helper()
	pool, err := jobs.NewPool(ix, placement, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "cluster-test-sum", UnitSize: 4, GroupBytes: 1 << 10}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	h, err := head.New(head.Config{
		Pool:           pool,
		Reducer:        sumReducer{},
		Spec:           spec,
		ExpectClusters: clusters,
		Tuning:         tn,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSingleClusterInProc(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100)
	h := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), 1)
	rep, err := Run(Config{
		Site:    0,
		Name:    "local",
		Cores:   4,
		Sources: map[int]chunk.Source{0: src},
		Head:    InProc{Head: h},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	obj, reports, _, err := h.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("final sum = %d, want %d", got, want)
	}
	final, err := sumReducer{}.Decode(rep.Final)
	if err != nil || final.(*sumObj).total != want {
		t.Errorf("cluster's copy of final = %v, %v", final, err)
	}
	if len(reports) != 1 || reports[0].Jobs.Total() != ix.NumChunks() {
		t.Errorf("reports = %+v", reports)
	}
	if rep.Jobs.Stolen != 0 {
		t.Errorf("single local cluster stole %d jobs", rep.Jobs.Stolen)
	}
}

// readHook runs before on every read.
type readHook struct {
	chunk.Source
	before func()
}

func (r readHook) ReadChunk(ref chunk.Ref) ([]byte, error) {
	r.before()
	return r.Source.ReadChunk(ref)
}

func TestHybridTwoClustersInProc(t *testing.T) {
	ix, src, want := buildDataset(t, 8000, 1000, 100) // 8 files × 10 chunks
	// 25% of files at site 0, 75% at site 1: site 0 must steal.
	placement := jobs.SplitByFraction(len(ix.Files), 0.25, 0, 1)
	h := newHead(t, ix, placement, 2)

	// Both clusters read the same backing data. The cloud's reads are held
	// until the local cluster starts its 21st read: it owns only 20 chunks,
	// so that read is a stolen one. Otherwise, with in-memory reads and
	// symmetric compute, the cloud could be granted its whole share before
	// the local cluster asks for more, and no stealing would happen.
	localOwns := ix.NumChunks() / 4
	cloudGate := make(chan struct{})
	var localReads atomic.Int64
	localSrc := readHook{Source: src, before: func() {
		if localReads.Add(1) == int64(localOwns)+1 {
			close(cloudGate)
		}
	}}
	cloudSrc := gatedSource{Source: src, open: cloudGate}
	var wg sync.WaitGroup
	reports := make([]*Report, 2)
	errs := make([]error, 2)
	for i, cfg := range []Config{
		{Site: 0, Name: "local", Cores: 2, Sources: map[int]chunk.Source{0: localSrc, 1: localSrc}, Head: InProc{Head: h}},
		{Site: 1, Name: "cloud", Cores: 2, Sources: map[int]chunk.Source{0: cloudSrc, 1: cloudSrc}, Head: InProc{Head: h}},
	} {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			reports[i], errs[i] = Run(cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cluster %d: %v", i, err)
		}
	}
	obj, hreports, _, err := h.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("final sum = %d, want %d", got, want)
	}
	total := 0
	for _, r := range hreports {
		total += r.Jobs.Total()
	}
	if total != ix.NumChunks() {
		t.Errorf("clusters processed %d jobs, dataset has %d", total, ix.NumChunks())
	}
	// With a 25/75 split and symmetric compute, at least one side works on
	// remote data.
	if reports[0].Jobs.Stolen+reports[1].Jobs.Stolen == 0 {
		t.Error("no stealing despite skewed placement")
	}
}

func TestHybridOverSockets(t *testing.T) {
	ix, src, want := buildDataset(t, 6000, 1000, 100)
	placement := jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1)
	h := newHead(t, ix, placement, 2)

	// Head over TCP.
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(hl)
	defer h.Close()

	// Site 1's data behind an object-store server, as in a real deployment.
	backend := objstore.NewMemBackend()
	store := objstore.NewServer(backend)
	store.Logf = t.Logf
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go store.Serve(sl)
	defer store.Close()
	osc := objstore.Dial("tcp", sl.Addr().String(), 8)
	defer osc.Close()
	if err := objstore.Upload(osc, ix, src, ""); err != nil {
		t.Fatal(err)
	}

	runCluster := func(site int, name string) (*Report, error) {
		hc, err := DialHead("tcp", hl.Addr().String())
		if err != nil {
			return nil, err
		}
		defer hc.Close()
		return Run(Config{
			Site:             site,
			Name:             name,
			Cores:            2,
			RetrievalThreads: 3,
			Head:             hc,
			SourceBuilder: func(ix *chunk.Index) (map[int]chunk.Source, error) {
				return map[int]chunk.Source{
					0: src, // cluster-local storage node
					1: &objstore.Source{Client: osc, Index: ix, Threads: 2},
				}, nil
			},
			SourceLabels: map[int]string{0: "local", 1: "s3"},
		})
	}

	var wg sync.WaitGroup
	reports := make([]*Report, 2)
	errs := make([]error, 2)
	for i, site := range []int{0, 1} {
		wg.Add(1)
		go func(i, site int) {
			defer wg.Done()
			reports[i], errs[i] = runCluster(site, fmt.Sprintf("c%d", site))
		}(i, site)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cluster %d: %v", i, err)
		}
	}
	obj, _, _, err := h.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("final sum = %d, want %d", got, want)
	}
	// Byte accounting: both clusters together must have read the dataset
	// exactly once.
	var bytes int64
	for _, r := range reports {
		for _, n := range r.Bytes {
			bytes += n
		}
	}
	if bytes != ix.TotalBytes() {
		t.Errorf("clusters retrieved %d bytes, dataset is %d", bytes, ix.TotalBytes())
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Cores: 1}); err == nil {
		t.Error("missing head accepted")
	}
	ix, src, _ := buildDataset(t, 100, 100, 10)
	h := newHead(t, ix, jobs.SplitByFraction(1, 1, 0, 1), 1)
	if _, err := Run(Config{Cores: 1, Head: InProc{Head: h}}); err == nil {
		t.Error("missing sources accepted")
	}
	_ = src
}

func TestHeadRejectsExtraClusters(t *testing.T) {
	ix, _, _ := buildDataset(t, 100, 100, 10)
	h := newHead(t, ix, jobs.SplitByFraction(1, 1, 0, 1), 1)
	if _, err := h.Register(protocol.Hello{Site: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register(protocol.Hello{Site: 1}); err == nil {
		t.Error("over-registration accepted")
	}
}

func TestUnknownReducerInSpec(t *testing.T) {
	ix, src, _ := buildDataset(t, 100, 100, 10)
	pool, err := jobs.NewPool(ix, jobs.SplitByFraction(1, 1, 0, 1), jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "no-such-app", UnitSize: 4}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	h, err := head.New(head.Config{Pool: pool, Reducer: sumReducer{}, Spec: spec, ExpectClusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{
		Site: 0, Name: "x", Cores: 1,
		Sources: map[int]chunk.Source{0: src},
		Head:    InProc{Head: h},
	}); err == nil {
		t.Error("unknown reducer accepted")
	}
}

// TestHybridOverSocketsCodecs runs the two-cluster hybrid deployment under
// the supported wire-codec combinations: both masters on the default binary
// codec against a default head; both pinned to gob against a head that
// opted in with -wire-codec=gob; and mixed — a binary-advertising master on
// the gob-pinned head, which must be accepted but held on gob (an opted-in
// head never upgrades anyone). The final sum must be identical in all
// three.
func TestHybridOverSocketsCodecs(t *testing.T) {
	gobHead := config.Tuning{WireCodec: config.CodecGob}
	cases := []struct {
		name   string
		useGob [2]bool
		tuning config.Tuning
	}{
		{"both-binary", [2]bool{false, false}, config.Tuning{}},
		{"both-gob", [2]bool{true, true}, gobHead},
		{"mixed", [2]bool{true, false}, gobHead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, src, want := buildDataset(t, 6000, 1000, 100)
			placement := jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1)
			h := newHeadTuned(t, ix, placement, 2, tc.tuning)

			hl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go h.Serve(hl)
			defer h.Close()

			backend := objstore.NewMemBackend()
			store := objstore.NewServer(backend)
			sl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go store.Serve(sl)
			defer store.Close()
			up := objstore.Dial("tcp", sl.Addr().String(), 4)
			if err := objstore.Upload(up, ix, src, ""); err != nil {
				t.Fatal(err)
			}
			up.Close()

			runCluster := func(site int, useGob bool) (*Report, error) {
				hc, err := DialHead("tcp", hl.Addr().String())
				if err != nil {
					return nil, err
				}
				hc.UseGob = useGob
				defer hc.Close()
				codec := transport.CodecBinary
				if useGob {
					codec = transport.CodecGob
				}
				osc := objstore.DialCodec("tcp", sl.Addr().String(), 4, codec)
				defer osc.Close()
				return Run(Config{
					Site:             site,
					Name:             fmt.Sprintf("c%d", site),
					Cores:            2,
					RetrievalThreads: 2,
					Head:             hc,
					SourceBuilder: func(ix *chunk.Index) (map[int]chunk.Source, error) {
						return map[int]chunk.Source{
							0: src,
							1: &objstore.Source{Client: osc, Index: ix, Threads: 2},
						}, nil
					},
					SourceLabels: map[int]string{0: "local", 1: "s3"},
				})
			}

			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i, site := range []int{0, 1} {
				wg.Add(1)
				go func(i, site int) {
					defer wg.Done()
					_, errs[i] = runCluster(site, tc.useGob[i])
				}(i, site)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("cluster %d: %v", i, err)
				}
			}
			obj, _, _, err := h.Result()
			if err != nil {
				t.Fatalf("Result: %v", err)
			}
			if got := obj.(*sumObj).total; got != want {
				t.Errorf("final sum = %d, want %d", got, want)
			}
		})
	}
}
