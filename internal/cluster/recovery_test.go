package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// newFaultHead is newHead plus a fault configuration: a checkpoint store and
// the lease TTL (zero disables expiry-driven failure detection).
func newFaultHead(t *testing.T, ix *chunk.Index, placement jobs.Placement, clusters int, store fault.Store, ttl time.Duration) *singleQuery {
	t.Helper()
	return newQueryHead(t, ix, placement, head.Config{
		ExpectClusters: clusters,
		Logf:           t.Logf,
		Tuning:         config.Tuning{LeaseTTL: ttl},
		Fault:          head.FaultConfig{Store: store},
	})
}

// siteJobs returns the job count a query's report credits to site.
func siteJobs(reports []head.ClusterReport, site int) int {
	for _, r := range reports {
		if r.Site == site {
			return r.Jobs.Total()
		}
	}
	return 0
}

// TestWorkerCrashRecoveryByteIdentical is the live-mode end-to-end recovery
// drill: a worker is killed mid-run after shipping reduction-object
// checkpoints, a replacement re-registers, resumes from the last checkpoint,
// and the final reduction object is byte-for-byte identical to a
// failure-free run's.
func TestWorkerCrashRecoveryByteIdentical(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100) // 4 files × 10 chunks = 40 jobs
	placement := jobs.SplitByFraction(len(ix.Files), 1, 0, 1)

	// Reference: failure-free run.
	refObj, _, err := newHead(t, ix, placement, 1).run(AgentConfig{
		Site: 0, Name: "ref", Cores: 2,
		Sources: map[int]chunk.Source{0: src},
	})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Faulty run: the data path dies after 12 successful chunk reads.
	h := newFaultHead(t, ix, placement, 1, fault.NewMemStore(), 0)
	inj := &fault.Injector{Source: src, KillAfter: 12}
	cfg := AgentConfig{
		Site: 0, Name: "doomed", Cores: 2,
		Sources: map[int]chunk.Source{0: inj},
		Head:    InProcAgent{Head: h.Head},
		Tuning:  config.Tuning{CheckpointEveryJobs: 5},
		Retry:   Retry{Attempts: 2, Backoff: time.Millisecond},
		Logf:    t.Logf,
	}
	if err := RunAgent(context.Background(), cfg); err == nil {
		t.Fatal("killed worker's run succeeded")
	}

	// The replacement worker: fresh data path, same site. Its query spec
	// hands it the last checkpoint; it must not re-fold covered jobs.
	inj.Arm()
	obj, reports, err := h.run(cfg)
	if err != nil {
		t.Fatalf("restarted run: %v", err)
	}
	final, _ := sumReducer{}.Encode(obj)
	refFinal, _ := sumReducer{}.Encode(refObj)
	if !bytes.Equal(final, refFinal) {
		t.Errorf("final object differs after recovery: %x vs %x", final, refFinal)
	}
	// At least two checkpoints (after folds 5 and 10) were shipped before
	// the crash, so the replacement processes at most 30 of the 40 jobs.
	if n := siteJobs(reports, 0); n > 30 {
		t.Errorf("replacement processed %d jobs; checkpoint resume should cap it at 30", n)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("recovered sum = %d, want %d", got, want)
	}
}

// pageRankRecoveryGraph lays out 2000 edges over 1024 nodes as 4 files ×
// 10 chunks (40 jobs). Nodes 0–249 each link to 8 even nodes; odd nodes
// receive nothing, so half of every reduction object is zero. The params
// carry a rank vector that is dyadic on the sources and (1-d)/N, the
// codec's fill, elsewhere: every contribution is an exact power of two and
// every sum is exact, so the final object is independent of fold order and
// each node's exact in-sum is known.
func pageRankRecoveryGraph(t *testing.T) (*chunk.Index, *chunk.MemSource, apps.PageRankParams, []float64) {
	t.Helper()
	const nodes, edges, outDeg = 1024, 2000, 8
	ix, err := chunk.Layout("pr", edges, workload.EdgeUnitSize, 500, 50)
	if err != nil {
		t.Fatal(err)
	}
	p := apps.PageRankParams{Nodes: nodes, Damping: 0.85, Ranks: make([]float64, nodes)}
	for i := range p.Ranks {
		p.Ranks[i] = (1 - p.Damping) / nodes
		if i < edges/outDeg {
			p.Ranks[i] = math.Ldexp(1, -9-i%2)
		}
	}
	want := make([]float64, nodes)
	src := chunk.NewMemSource(ix)
	e := 0
	for _, f := range ix.Files {
		buf := make([]byte, f.Size)
		for off := 0; off < len(buf); off += workload.EdgeUnitSize {
			from, to := e/outDeg, 2*(e*37%(nodes/2))
			binary.LittleEndian.PutUint32(buf[off:], uint32(from))
			binary.LittleEndian.PutUint32(buf[off+4:], uint32(to))
			binary.LittleEndian.PutUint32(buf[off+8:], outDeg)
			want[to] += p.Ranks[from] / outDeg
			e++
		}
		if err := src.WriteFile(f.Name, buf); err != nil {
			t.Fatal(err)
		}
	}
	return ix, src, p, want
}

// TestPageRankCrashRecoveryByteIdentical is the recovery drill with the
// application whose reduction object is large: a PageRank master is killed
// mid-query after shipping checkpoints, its replacement resumes from the
// last (sparse) checkpoint, and the final object is byte-identical to an
// uninterrupted run's, with every edge's contribution counted exactly once.
func TestPageRankCrashRecoveryByteIdentical(t *testing.T) {
	ix, src, p, want := pageRankRecoveryGraph(t)
	placement := jobs.SplitByFraction(len(ix.Files), 1, 0, 1)
	params, err := apps.EncodePageRankParams(p)
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: apps.PageRankReducerName, Params: params, UnitSize: workload.EdgeUnitSize}
	r, err := apps.NewPageRankReducer(p)
	if err != nil {
		t.Fatal(err)
	}

	refObj, _, err := newAppHead(t, ix, placement, head.Config{ExpectClusters: 1, Logf: t.Logf}, r, spec).run(AgentConfig{
		Site: 0, Name: "ref", Cores: 2,
		Sources: map[int]chunk.Source{0: src},
	})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	store := fault.NewMemStore()
	h := newAppHead(t, ix, placement, head.Config{
		ExpectClusters: 1,
		Logf:           t.Logf,
		Fault:          head.FaultConfig{Store: store},
	}, r, spec)
	inj := &fault.Injector{Source: src, KillAfter: 12}
	cfg := AgentConfig{
		Site: 0, Name: "doomed", Cores: 2,
		Sources: map[int]chunk.Source{0: inj},
		Head:    InProcAgent{Head: h.Head},
		Tuning:  config.Tuning{CheckpointEveryJobs: 5},
		Retry:   Retry{Attempts: 2, Backoff: time.Millisecond},
		Logf:    t.Logf,
	}
	if err := RunAgent(context.Background(), cfg); err == nil {
		t.Fatal("killed master's run succeeded")
	}
	data, err := store.Get(fault.QueryKey("", h.q.ID(), 0))
	if err != nil {
		t.Fatalf("no checkpoint persisted before the crash: %v", err)
	}
	ck, err := fault.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if dense := 8 * p.Nodes; len(ck.Object) >= dense {
		t.Errorf("checkpointed object is %d bytes, not below the dense %d", len(ck.Object), dense)
	}

	inj.Arm()
	obj, reports, err := h.run(cfg)
	if err != nil {
		t.Fatalf("restarted run: %v", err)
	}
	final, _ := r.Encode(obj)
	refFinal, _ := r.Encode(refObj)
	if !bytes.Equal(final, refFinal) {
		t.Errorf("final object differs after recovery (%d vs %d bytes)", len(final), len(refFinal))
	}
	if n := siteJobs(reports, 0); n > 30 {
		t.Errorf("replacement processed %d jobs; checkpoint resume should cap it at 30", n)
	}
	for i, got := range obj.(*apps.PageRankObject).Incoming {
		if got != want[i] {
			t.Fatalf("node %d: in-sum %v, want %v (an edge lost or folded twice)", i, got, want[i])
		}
	}
}

// fencingSource triggers fence() around the nth chunk read — the test's
// deterministic stand-in for a lease expiring under a still-alive master.
type fencingSource struct {
	chunk.Source
	mu    sync.Mutex
	n     int
	after int
	fence func()
}

func (f *fencingSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	f.mu.Lock()
	f.n++
	if f.n == f.after {
		f.fence()
	}
	f.mu.Unlock()
	return f.Source.ReadChunk(ref)
}

// registerCounter counts RegisterSite calls through to the wrapped client.
type registerCounter struct {
	QueryClient
	n atomic.Int32
}

func (r *registerCounter) RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error) {
	r.n.Add(1)
	return r.QueryClient.RegisterSite(hello)
}

// TestFencedMasterFailsFastAndRejoins declares a site failed while its
// agent is alive and mid-run. The fenced incarnation must drop its work
// instead of hanging on wait=true polls or silently double-counting, then
// re-register exactly once, resume from the last accepted checkpoint and
// produce the exact failure-free result.
func TestFencedMasterFailsFastAndRejoins(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100) // 40 jobs
	placement := jobs.SplitByFraction(len(ix.Files), 1, 0, 1)
	// Expiry never fires on its own (1h TTL); the test fences explicitly.
	h := newFaultHead(t, ix, placement, 1, fault.NewMemStore(), time.Hour)
	fsrc := &fencingSource{Source: src, after: 12, fence: func() { h.FailSite(0) }}
	client := &registerCounter{QueryClient: InProcAgent{Head: h.Head}}
	done := make(chan struct{})
	var (
		obj core.Object
		err error
	)
	go func() {
		defer close(done)
		obj, _, err = h.run(AgentConfig{
			Site: 0, Name: "straggler", Cores: 2,
			Sources: map[int]chunk.Source{0: fsrc},
			Head:    client,
			Tuning:  config.Tuning{CheckpointEveryJobs: 5},
			Logf:    t.Logf,
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		h.Shutdown()
		t.Fatal("fenced agent hung instead of rejoining")
	}
	if err != nil {
		t.Fatalf("rejoined run: %v", err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("sum after fencing = %d, want %d", got, want)
	}
	if n := client.n.Load(); n != 2 {
		t.Errorf("agent registered %d times, want 2 (once more after the fence)", n)
	}
}

// gatedSource blocks every read until open is closed: it holds a peer back
// so a fault elsewhere fires on its own schedule rather than racing the
// peer for the shared pool.
type gatedSource struct {
	chunk.Source
	open <-chan struct{}
}

func (g gatedSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	<-g.open
	return g.Source.ReadChunk(ref)
}

// TestCrashRestartWithTwoClusters kills one of two clusters and lets lease
// expiry hand its unfinished jobs to the survivor; the restarted cluster
// then rejoins to contribute its (checkpointed) share and the final object
// matches the failure-free answer.
//
// The healthy cluster's reads are held until the doomed incarnation has
// died. Otherwise, under CPU contention, the healthy cluster could steal
// and drain site 0's jobs before the doomed one's fatal read, and no crash
// would happen at all.
func TestCrashRestartWithTwoClusters(t *testing.T) {
	ix, src, want := buildDataset(t, 8000, 1000, 100) // 8 files × 10 chunks
	placement := jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1)

	h := newFaultHead(t, ix, placement, 2, fault.NewMemStore(), 200*time.Millisecond)
	doomedDied := make(chan struct{})
	gated := gatedSource{Source: src, open: doomedDied}
	sources := map[int]chunk.Source{0: gated, 1: gated}
	inj := &fault.Injector{Source: src, KillAfter: 8}
	doomed := AgentConfig{
		Site: 0, Name: "doomed", Cores: 2,
		Sources: map[int]chunk.Source{0: inj, 1: inj},
		Head:    InProcAgent{Head: h.Head},
		Tuning:  config.Tuning{CheckpointEveryJobs: 4},
		Retry:   Retry{Attempts: 2, Backoff: time.Millisecond},
	}
	healthy := AgentConfig{
		Site: 1, Name: "healthy", Cores: 2,
		Sources: sources,
		Head:    InProcAgent{Head: h.Head},
	}

	healthyDone := make(chan error, 1)
	go func() { healthyDone <- RunAgent(context.Background(), healthy) }()

	// First incarnation dies, replacement resumes from its checkpoint.
	err := RunAgent(context.Background(), doomed)
	close(doomedDied)
	if err == nil {
		t.Fatal("killed cluster's run succeeded")
	}
	inj.Arm()
	obj, _, err := h.run(doomed)
	if err != nil {
		t.Fatalf("restarted cluster: %v", err)
	}
	if err := <-healthyDone; err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}
