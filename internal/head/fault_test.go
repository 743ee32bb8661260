package head

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// faultOpts bundles the knobs the fault tests vary; timing lives in the
// shared config.Tuning now, so the helper splits them for Config.
type faultOpts struct {
	LeaseTTL           time.Duration
	SpeculateAfter     time.Duration
	StragglerFactor    float64
	WatchdogMinSamples int
	Store              fault.Store
	Obs                *obs.Obs
}

func testFaultHead(t *testing.T, clusters int, fo faultOpts) (*Head, *jobs.Pool) {
	t.Helper()
	ix, err := chunk.Layout("h", 100, 4, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := jobs.NewPool(ix, jobs.Placement{0, 1}, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "sum", UnitSize: 4}
	if err := EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	// The head's failure detector runs on its own goroutine and may log a
	// lease expiry while the test is finishing; logging after the test has
	// completed panics, so cleanup stops the head and then the logger.
	var (
		logMu  sync.Mutex
		logOff bool
	)
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		if !logOff {
			t.Logf(format, args...)
		}
	}
	h, err := New(Config{
		Pool: pool, Reducer: sumReducer{}, Spec: spec,
		ExpectClusters: clusters, Logf: logf,
		Tuning: config.Tuning{LeaseTTL: fo.LeaseTTL, SpeculateAfter: fo.SpeculateAfter,
			StragglerFactor: fo.StragglerFactor, WatchdogMinSamples: fo.WatchdogMinSamples},
		Fault: FaultConfig{Store: fo.Store},
		Obs:   fo.Obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.Shutdown()
		logMu.Lock()
		logOff = true
		logMu.Unlock()
	})
	return h, pool
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLeaseExpiryRequeuesInFlight(t *testing.T) {
	h, pool := testFaultHead(t, 2, faultOpts{LeaseTTL: 40 * time.Millisecond})
	if _, err := h.Register(protocol.Hello{Site: 0, Cluster: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register(protocol.Hello{Site: 1, Cluster: "b"}); err != nil {
		t.Fatal(err)
	}
	js, _, _ := reqJobs(h, 0, 3)
	if len(js) != 3 {
		t.Fatalf("granted %d", len(js))
	}
	if pool.Remaining() != 7 {
		t.Fatalf("remaining = %d", pool.Remaining())
	}
	// Site 1 keeps heartbeating; site 0 goes silent and must be failed.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				h.Heartbeat(1)
			}
		}
	}()
	waitFor(t, "site 0 lease expiry", func() bool {
		return pool.Remaining() == 10 && pool.Outstanding() == 0
	})
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	h, pool := testFaultHead(t, 1, faultOpts{LeaseTTL: 60 * time.Millisecond})
	if _, err := h.Register(protocol.Hello{Site: 0, Cluster: "a"}); err != nil {
		t.Fatal(err)
	}
	js, _, _ := reqJobs(h, 0, 2)
	if len(js) != 2 {
		t.Fatalf("granted %d", len(js))
	}
	for i := 0; i < 20; i++ {
		h.Heartbeat(0)
		time.Sleep(10 * time.Millisecond)
	}
	if got := pool.Outstanding(); got != 2 {
		t.Fatalf("outstanding = %d after heartbeats, want 2 (lease must not expire)", got)
	}
}

func TestCheckpointSaveAndPrune(t *testing.T) {
	store := fault.NewMemStore()
	h, pool := testFaultHead(t, 1, faultOpts{Store: store})
	if _, err := h.Register(protocol.Hello{Site: 0, Cluster: "a"}); err != nil {
		t.Fatal(err)
	}
	js, _, _ := reqJobs(h, 0, 4)
	if len(js) != 4 {
		t.Fatalf("granted %d", len(js))
	}
	if _, err := h.CompleteJobs(0, js); err != nil {
		t.Fatal(err)
	}

	// Checkpoint covering the first two completions.
	ck := fault.Checkpoint{
		Site: 0, Seq: 1, Object: encodeSum(5),
		Completed: []int{js[0].ID, js[1].ID},
	}
	data := ck.Encode()
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Get(fault.Key("", 0)); err != nil || len(got) != len(data) {
		t.Fatalf("stored checkpoint = %d bytes, %v", len(got), err)
	}

	// A stale or replayed sequence number must be rejected.
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 1, Data: data}); err == nil {
		t.Error("stale checkpoint seq accepted")
	}
	// Garbage must be rejected before touching the store.
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 2, Data: []byte("junk")}); err == nil {
		t.Error("corrupt checkpoint accepted")
	}

	// On failure only the two un-checkpointed completions are reissued.
	before := pool.Remaining() // 6: 10 - 4 completed
	h.FailSite(0)
	if got := pool.Remaining(); got != before+2 {
		t.Errorf("remaining after failure = %d, want %d (2 un-checkpointed jobs reissued)", got, before+2)
	}
}

func TestCheckpointWithoutStoreRejected(t *testing.T) {
	h, _ := testFaultHead(t, 1, faultOpts{LeaseTTL: time.Hour})
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 1}); err == nil {
		t.Error("checkpoint accepted with no store configured")
	}
}

func TestReregistrationRecoversFromCheckpoint(t *testing.T) {
	store := fault.NewMemStore()
	h, pool := testFaultHead(t, 1, faultOpts{Store: store, LeaseTTL: time.Hour})
	if _, err := h.Register(protocol.Hello{Site: 0, Cluster: "a"}); err != nil {
		t.Fatal(err)
	}
	js, _, _ := reqJobs(h, 0, 4)
	if _, err := h.CompleteJobs(0, js); err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(js))
	for i, j := range js {
		ids[i] = j.ID
	}
	ck := fault.Checkpoint{Site: 0, Seq: 1, Object: encodeSum(9), Completed: ids}
	data := ck.Encode()
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	// Site 0 is still holding two more jobs when it crashes and restarts.
	more, _, _ := reqJobs(h, 0, 2)
	if len(more) != 2 {
		t.Fatalf("granted %d", len(more))
	}
	spec, err := h.Register(protocol.Hello{Site: 0, Cluster: "a"})
	if err != nil {
		t.Fatalf("re-registration rejected: %v", err)
	}
	if string(spec.Checkpoint) != string(data) {
		t.Errorf("recovered checkpoint = %d bytes, want %d", len(spec.Checkpoint), len(data))
	}
	// The crashed incarnation's in-flight jobs went back to the pool; the
	// checkpointed completions did not.
	if got := pool.Remaining(); got != 10-4 {
		t.Errorf("remaining = %d, want %d", got, 10-4)
	}
	if got := pool.Outstanding(); got != 0 {
		t.Errorf("outstanding = %d, want 0", got)
	}
}

func TestFreshRegistrationStillLimited(t *testing.T) {
	h, _ := testFaultHead(t, 1, faultOpts{LeaseTTL: time.Hour})
	if _, err := h.Register(protocol.Hello{Site: 0, Cluster: "a"}); err != nil {
		t.Fatal(err)
	}
	// A different site over capacity is still rejected even with faults on.
	if _, err := h.Register(protocol.Hello{Site: 1, Cluster: "b"}); err == nil {
		t.Error("over-registration accepted with fault tolerance enabled")
	}
}

// TestFencedSiteRejectedUntilReregister drives the unfenced-straggler
// double-count scenario end to end at the head: a site is declared failed
// while still alive (a lease expiry beat its heartbeats), its
// un-checkpointed work is recomputed elsewhere, and the "dead" incarnation
// then tries to keep participating. Every such attempt — job requests,
// commits, checkpoints, and the final result carrying the same folds the
// survivor recomputed — must be fenced off until the site re-registers.
func TestFencedSiteRejectedUntilReregister(t *testing.T) {
	store := fault.NewMemStore()
	h, pool := testFaultHead(t, 2, faultOpts{Store: store, LeaseTTL: time.Hour})
	if _, err := h.Register(protocol.Hello{Site: 0, Cluster: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register(protocol.Hello{Site: 1, Cluster: "b"}); err != nil {
		t.Fatal(err)
	}
	js, _, _ := reqJobs(h, 0, 4)
	if len(js) != 4 {
		t.Fatalf("granted %d", len(js))
	}
	if _, err := h.CompleteJobs(0, js); err != nil {
		t.Fatal(err)
	}
	// Failure detector fires while site 0 is in fact still alive: its 4
	// un-checkpointed completions go back for recomputation.
	h.FailSite(0)

	if _, _, err := reqJobs(h, 0, 4); !fault.IsFenced(err) {
		t.Errorf("RequestJobs from fenced site: err = %v, want fenced", err)
	}
	if _, err := h.CompleteJobs(0, js); !fault.IsFenced(err) {
		t.Errorf("CompleteJobs from fenced site: err = %v, want fenced", err)
	}
	ck := fault.Checkpoint{Site: 0, Seq: 1, Object: encodeSum(7), Completed: []int{js[0].ID}}
	if err := h.CheckpointSave(protocol.CheckpointSave{Site: 0, Seq: 1, Data: ck.Encode()}); !fault.IsFenced(err) {
		t.Errorf("CheckpointSave from fenced site: err = %v, want fenced", err)
	}
	if _, err := store.Get(fault.Key("", 0)); err == nil {
		t.Error("fenced checkpoint was persisted")
	}
	// Heartbeats must not un-fence: only re-registration revives the lease.
	h.Heartbeat(0)
	if _, _, err := reqJobs(h, 0, 1); !fault.IsFenced(err) {
		t.Errorf("RequestJobs after heartbeat: err = %v, want still fenced", err)
	}

	// The survivor recomputes everything, including site 0's reissued jobs.
	for {
		got, wait, err := reqJobs(h, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			if wait {
				t.Fatal("empty grant with wait=true while survivor still working")
			}
			break
		}
		if _, err := h.CompleteJobs(1, got); err != nil {
			t.Fatal(err)
		}
	}
	if !pool.Drained() {
		t.Fatal("pool not drained by survivor")
	}

	survivor := make(chan error, 1)
	go func() {
		_, err := h.SubmitResult(protocol.ReductionResult{Site: 1, Object: encodeSum(42)})
		survivor <- err
	}()
	// The fenced incarnation's object holds the very folds the survivor
	// recomputed; merging it would double-count them.
	if _, err := h.SubmitResult(protocol.ReductionResult{Site: 0, Object: encodeSum(999)}); !fault.IsFenced(err) {
		t.Fatalf("SubmitResult from fenced site: err = %v, want fenced", err)
	}
	select {
	case err := <-survivor:
		t.Fatalf("survivor released by fenced submit (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}

	// Re-registration revives the site; with no checkpoint it contributes
	// nothing it hasn't re-earned — here, the identity object.
	if _, err := h.Register(protocol.Hello{Site: 0, Cluster: "a"}); err != nil {
		t.Fatalf("re-registration: %v", err)
	}
	if _, wait, err := reqJobs(h, 0, 4); err != nil || wait {
		t.Fatalf("revived RequestJobs: wait=%v err=%v", wait, err)
	}
	if _, err := h.SubmitResult(protocol.ReductionResult{Site: 0, Object: encodeSum(0)}); err != nil {
		t.Fatalf("revived submit: %v", err)
	}
	if err := <-survivor; err != nil {
		t.Fatal(err)
	}
	obj, _, _, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != 42 {
		t.Errorf("final = %d, want 42 (fenced contribution must not be double-counted)", got)
	}
}

func TestSpeculationDuplicatesStragglers(t *testing.T) {
	h, pool := testFaultHead(t, 2, faultOpts{SpeculateAfter: 30 * time.Millisecond})
	if _, err := h.Register(protocol.Hello{Site: 0, Cluster: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register(protocol.Hello{Site: 1, Cluster: "b"}); err != nil {
		t.Fatal(err)
	}
	// Site 0 takes the entire pool and then stalls on its last 2 jobs.
	js, _, _ := reqJobs(h, 0, 10)
	if len(js) != 10 {
		t.Fatalf("granted %d", len(js))
	}
	if dups, err := h.CompleteJobs(0, js[:8]); err != nil || len(dups) != 0 {
		t.Fatalf("completing head of pool: dups=%v err=%v", dups, err)
	}
	// An empty grant while stragglers are outstanding must say "poll again".
	if got, wait, _ := reqJobs(h, 1, 4); len(got) != 0 || !wait {
		t.Fatalf("grant = %d jobs, wait = %v; want empty+wait", len(got), wait)
	}
	// The watchdog speculates the 2 stragglers back into the pool.
	var spec []jobs.Job
	waitFor(t, "speculative copies", func() bool {
		spec, _, _ = reqJobs(h, 1, 4)
		return len(spec) == 2
	})
	// Site 1's copies land first; the original site's commits become dups.
	if dups, err := h.CompleteJobs(1, spec); err != nil || len(dups) != 0 {
		t.Fatalf("speculative commit: dups=%v err=%v", dups, err)
	}
	dups, err := h.CompleteJobs(0, js[8:])
	if err != nil {
		t.Fatal(err)
	}
	if len(dups) != 2 {
		t.Errorf("straggler commits: %d dups, want 2", len(dups))
	}
	if !pool.Drained() {
		t.Error("pool not drained after speculation resolved")
	}
}

// TestLatencyWatchdogFlagsSlowSite: the live watchdog compares each site's
// p99 grant→commit latency against the query's median and, on the first poll
// after the evidence accumulates, flags the slow site exactly once —
// speculating its in-flight jobs, ticking the labeled counter, and emitting
// a trace instant.
func TestLatencyWatchdogFlagsSlowSite(t *testing.T) {
	o := obs.New(nil)
	o.Tracer.Enable()
	h, pool := testFaultHead(t, 2, faultOpts{
		// SpeculateAfter arms the speculation machinery; a huge value keeps
		// the empty-pool timer out of the picture so only the latency
		// watchdog can speculate.
		SpeculateAfter:     time.Hour,
		StragglerFactor:    2,
		WatchdogMinSamples: 2,
		Obs:                o,
	})
	if _, err := h.Register(protocol.Hello{Site: 0, Cluster: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register(protocol.Hello{Site: 1, Cluster: "b"}); err != nil {
		t.Fatal(err)
	}

	// The healthy site establishes the cluster median with quick commits.
	for i := 0; i < 2; i++ {
		js, _, err := reqJobs(h, 1, 2)
		if err != nil || len(js) == 0 {
			t.Fatalf("healthy grant: %d jobs, err=%v", len(js), err)
		}
		if _, err := h.CompleteJobs(1, js); err != nil {
			t.Fatal(err)
		}
	}

	// The slow site takes four jobs and commits half of them only after a
	// long stall, leaving the rest in flight.
	slow, _, err := reqJobs(h, 0, 4)
	if err != nil || len(slow) != 4 {
		t.Fatalf("slow grant: %d jobs, err=%v", len(slow), err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := h.CompleteJobs(0, slow[:2]); err != nil {
		t.Fatal(err)
	}

	// The next poll — any site's — runs the watchdog: the slow site is
	// flagged and its two in-flight jobs re-enter the pool as copies the
	// healthy site can pick up on its following poll.
	if _, _, err := reqJobs(h, 1, 1); err != nil {
		t.Fatal(err)
	}
	copies, _, err := reqJobs(h, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{slow[2].ID: true, slow[3].ID: true}
	ncopies := 0
	for _, j := range copies {
		if ids[j.ID] {
			ncopies++
		}
	}
	if ncopies != 2 {
		t.Fatalf("speculative copies granted = %d of %v, want 2", ncopies, copies)
	}

	snap := o.Registry.Snapshot()
	var flaggedKey string
	for k := range snap {
		if strings.HasPrefix(k, "head_straggler_flagged_total") {
			flaggedKey = k
		}
	}
	if flaggedKey == "" || !strings.Contains(flaggedKey, `site="0"`) || snap[flaggedKey] != 1 {
		t.Errorf("head_straggler_flagged_total: key=%q snap=%v", flaggedKey, snap[flaggedKey])
	}

	// Flagged once: further slow commits and polls must not re-flag.
	if _, err := h.CompleteJobs(0, slow[2:]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CompleteJobs(1, copies); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reqJobs(h, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := o.Registry.Snapshot()[flaggedKey]; got != 1 {
		t.Errorf("site re-flagged: counter = %d, want 1", got)
	}

	var sb strings.Builder
	if err := o.Tracer.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "straggler site 0") {
		t.Error("trace missing the watchdog's straggler instant")
	}
	_ = pool
}
