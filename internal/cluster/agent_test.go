package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
)

// multiHead builds a long-lived multi-query head with fault machinery on.
func multiTestHead(t *testing.T, clusters int, tn config.Tuning, store fault.Store) *head.Head {
	t.Helper()
	h, err := head.New(head.Config{
		Reducer:        sumReducer{},
		ExpectClusters: clusters,
		Logf:           t.Logf,
		Tuning:         tn,
		Fault:          head.FaultConfig{Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// admitSum admits one sum query whose pool places every file at site.
func admitSum(t *testing.T, h *head.Head, ix *chunk.Index, site int) *head.Query {
	t.Helper()
	placement := make(jobs.Placement, len(ix.Files))
	for i := range placement {
		placement[i] = site
	}
	pool, err := jobs.NewPool(ix, placement, jobs.Options{DisableStealing: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "cluster-test-sum", UnitSize: 4, GroupBytes: 1 << 10}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestAgentCrashRecoversOneQueryOnly is the resilience acceptance drill:
// two queries run concurrently over a shared two-site session, each confined
// to one site by placement. The site serving query A is killed mid-run; a
// replacement agent re-registers and query A recovers and completes, while
// query B — served by the surviving site — finishes undisturbed.
func TestAgentCrashRecoversOneQueryOnly(t *testing.T) {
	ix, src, want := buildDataset(t, 8000, 1000, 100) // 8 files × 10 chunks
	// Lease expiry never fires on its own; the test fails the site explicitly.
	h := multiTestHead(t, 2, config.Tuning{LeaseTTL: time.Hour}, fault.NewMemStore())

	qa := admitSum(t, h, ix, 0) // query A: all jobs at site 0
	qb := admitSum(t, h, ix, 1) // query B: all jobs at site 1

	// Site 0's first incarnation dies after 12 chunk reads.
	inj := &fault.Injector{Source: src, KillAfter: 12}
	doomedCfg := AgentConfig{
		Site: 0, Name: "doomed", Cores: 2,
		Sources: map[int]chunk.Source{0: inj},
		Head:    InProcAgent{Head: h},
		Retry:   Retry{Attempts: 2, Backoff: time.Millisecond},
		Logf:    t.Logf,
	}
	healthyCtx, healthyCancel := context.WithCancel(context.Background())
	defer healthyCancel()
	healthyDone := make(chan error, 1)
	go func() {
		healthyDone <- RunAgent(healthyCtx, AgentConfig{
			Site: 1, Name: "healthy", Cores: 2,
			Sources: map[int]chunk.Source{1: src},
			Head:    InProcAgent{Head: h},
			Logf:    t.Logf,
		})
	}()

	if err := RunAgent(context.Background(), doomedCfg); err == nil {
		t.Fatal("doomed agent survived its injected failure")
	}
	// The head notices the loss (in live deployments via lease expiry or the
	// dropped session) and requeues everything site 0 hadn't persisted.
	h.FailSite(0)

	// Query B completes on the survivor while site 0 is down: the failure
	// did not disturb it.
	bObj, bReports, _, err := qb.Wait(context.Background())
	if err != nil {
		t.Fatalf("query B (undisturbed site): %v", err)
	}
	if got := bObj.(*sumObj).total; got != want {
		t.Errorf("query B sum = %d, want %d", got, want)
	}
	if len(bReports) != 1 || bReports[0].Site != 1 {
		t.Errorf("query B reports = %+v, want exactly site 1", bReports)
	}
	select {
	case <-qa.Done():
		t.Fatal("query A finished before its replacement site rejoined")
	default:
	}

	// The replacement re-registers for site 0 and query A recovers.
	inj.Arm()
	replCtx, replCancel := context.WithCancel(context.Background())
	defer replCancel()
	replDone := make(chan error, 1)
	go func() {
		replDone <- RunAgent(replCtx, doomedCfg)
	}()
	aObj, aReports, _, err := qa.Wait(context.Background())
	if err != nil {
		t.Fatalf("query A (recovered): %v", err)
	}
	if got := aObj.(*sumObj).total; got != want {
		t.Errorf("query A sum after recovery = %d, want %d", got, want)
	}
	if len(aReports) != 1 || aReports[0].Site != 0 {
		t.Errorf("query A reports = %+v, want exactly site 0", aReports)
	}

	h.Shutdown()
	for i, ch := range []chan error{healthyDone, replDone} {
		select {
		case err := <-ch:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("agent %d exit: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("agent %d did not exit after shutdown", i)
		}
	}
}

// TestAgentServesInterleavedQueries: one agent, one registration, one wire
// session — two queries' jobs interleave through the shared poll loop and
// both reduce to the right answer with isolated per-query stats.
func TestAgentServesInterleavedQueries(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100) // 40 jobs per query
	h := multiTestHead(t, 1, config.Tuning{}, nil)
	qa := admitSum(t, h, ix, 0)
	qb := admitSum(t, h, ix, 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- RunAgent(ctx, AgentConfig{
			Site: 0, Name: "solo", Cores: 2,
			Sources: map[int]chunk.Source{0: src},
			Head:    InProcAgent{Head: h},
			Logf:    t.Logf,
		})
	}()
	for i, q := range []*head.Query{qa, qb} {
		obj, reports, _, err := q.Wait(context.Background())
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := obj.(*sumObj).total; got != want {
			t.Errorf("query %d sum = %d, want %d", i, got, want)
		}
		if len(reports) != 1 || reports[0].Jobs.Total() != ix.NumChunks() {
			t.Fatalf("query %d reports = %+v, want all %d jobs on one site", i, reports, ix.NumChunks())
		}
		// The local merge and encode are the agent's share of the global
		// reduction, reported as its Sync term.
		if b := reports[0].Breakdown; b.Sync <= 0 {
			t.Errorf("query %d: agent reported Sync = %v, want > 0 (breakdown %v)", i, b.Sync, b)
		}
	}
	h.Shutdown()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("agent exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent did not exit after shutdown")
	}
}

// TestRemoteAgentOverTCP drives the proto-1 wire session end to end: a
// RemoteAgent registers through Head.Serve, two queries run over the one
// connection, and a third is admitted mid-session.
func TestRemoteAgentOverTCP(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100)
	h := multiTestHead(t, 1, config.Tuning{}, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = h.Serve(l) }()

	ra, err := DialAgent("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	qa := admitSum(t, h, ix, 0)
	qb := admitSum(t, h, ix, 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	agentErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		agentErr <- RunAgent(ctx, AgentConfig{
			Site: 0, Name: "wire", Cores: 2,
			Sources: map[int]chunk.Source{0: src},
			Head:    ra,
			Logf:    t.Logf,
		})
	}()
	for i, q := range []*head.Query{qa, qb} {
		obj, _, _, err := q.Wait(context.Background())
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := obj.(*sumObj).total; got != want {
			t.Errorf("query %d sum = %d, want %d", i, got, want)
		}
	}
	qc := admitSum(t, h, ix, 0) // mid-session admission over the same wire
	obj, _, _, err := qc.Wait(context.Background())
	if err != nil {
		t.Fatalf("late query: %v", err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("late query sum = %d, want %d", got, want)
	}
	h.Shutdown()
	wg.Wait()
	if err := <-agentErr; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("agent exit: %v", err)
	}
	// The head's Close waits for connection handlers, which read until the
	// master hangs up — so drop the agent's connection first.
	_ = ra.Close()
	_ = h.Close()
}
