package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
	"repro/internal/stagecache"
)

// overlapDeadline bounds how long the scripted clients below wait for an
// event that only a poll-ahead agent produces; an agent that polls after
// its batch deadlocks against them and must fail, not hang.
const overlapDeadline = 5 * time.Second

// batchTracker is a QueryClient decorator that numbers polls and remembers
// which poll granted each job, so a test can act on "the batch granted by
// poll n" and "poll n has been sent".
type batchTracker struct {
	QueryClient

	mu        sync.Mutex
	polls     int                   // polls sent so far
	arrived   map[int]chan struct{} // closed when poll n is sent
	grantedBy map[int]int           // job ID → number of the poll that granted it
	size      map[int]int           // poll number → jobs it granted
	committed map[int]int           // poll number → jobs of it committed
	done      map[int]chan struct{} // closed when poll n's batch is fully committed
}

func newBatchTracker(inner QueryClient) *batchTracker {
	return &batchTracker{
		QueryClient: inner,
		arrived:     make(map[int]chan struct{}),
		grantedBy:   make(map[int]int),
		size:        make(map[int]int),
		committed:   make(map[int]int),
		done:        make(map[int]chan struct{}),
	}
}

// chanLocked returns the lazily created channel m[n]. Caller holds b.mu.
func chanLocked(m map[int]chan struct{}, n int) chan struct{} {
	ch, ok := m[n]
	if !ok {
		ch = make(chan struct{})
		m[n] = ch
	}
	return ch
}

// wait blocks until ch closes or the deadline passes.
func wait(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(overlapDeadline):
		return false
	}
}

// sendPoll numbers a poll and marks it sent.
func (b *batchTracker) sendPoll() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.polls++
	close(chanLocked(b.arrived, b.polls))
	return b.polls
}

// granted records the jobs poll n granted.
func (b *batchTracker) granted(n int, rep protocol.PollReply) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, qj := range rep.Queries {
		for _, j := range qj.Jobs {
			b.grantedBy[j.ID] = n
			b.size[n]++
		}
	}
}

// commit records one job's commit and returns the number of the poll that
// granted it, plus whether it completed that poll's batch.
func (b *batchTracker) commit(id int) (poll int, last bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	poll = b.grantedBy[id]
	b.committed[poll]++
	if b.committed[poll] == b.size[poll] {
		close(chanLocked(b.done, poll))
		return poll, true
	}
	return poll, false
}

func (b *batchTracker) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	n := b.sendPoll()
	rep, err := b.QueryClient.Poll(req)
	b.granted(n, rep)
	return rep, err
}

// blockingCommits makes the commit that completes a batch wait until the
// next poll has been sent: an agent that polls only after its batch is
// folded can never send it, and deadlocks.
type blockingCommits struct{ *batchTracker }

func (c blockingCommits) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	dups, err := c.batchTracker.CompleteJobs(done)
	for _, j := range done.Jobs {
		if poll, last := c.commit(j.ID); last {
			c.mu.Lock()
			next := chanLocked(c.arrived, poll+1)
			c.mu.Unlock()
			if !wait(next) {
				return dups, fmt.Errorf("batch of poll %d committed but poll %d never sent: the agent does not poll ahead", poll, poll+1)
			}
		}
	}
	return dups, err
}

// TestAgentPollsAheadOverlap pins the poll-ahead contract: the next poll is
// on the wire while the current batch is still being committed, so a head
// round trip overlaps the batch's folds instead of following them.
func TestAgentPollsAheadOverlap(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100) // 40 jobs
	h := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), 1)
	client := blockingCommits{newBatchTracker(InProcAgent{Head: h.Head})}
	obj, _, err := h.run(AgentConfig{
		Site: 0, Name: "overlap", Cores: 2, RetrievalThreads: 2, RequestBatch: 4,
		Sources: map[int]chunk.Source{0: src},
		Head:    client,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

// earlyDone holds each poll sent while the previous batch is still being
// committed until that batch's commits are all in, so the head answers the
// last such poll with the query's Done notice.
type earlyDone struct {
	*batchTracker
	sawEarlyDone atomic.Bool
}

func (c *earlyDone) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	n := c.sendPoll()
	c.mu.Lock()
	prev := c.size[n-1]
	early := prev > 0 && c.committed[n-1] < prev
	batchDone := chanLocked(c.done, n-1)
	c.mu.Unlock()
	if early && !wait(batchDone) {
		return protocol.PollReply{}, fmt.Errorf("batch of poll %d never committed", n-1)
	}
	rep, err := c.QueryClient.Poll(req)
	c.granted(n, rep)
	if early && len(rep.Done) > 0 {
		c.sawEarlyDone.Store(true)
	}
	return rep, err
}

func (c *earlyDone) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	dups, err := c.batchTracker.CompleteJobs(done)
	for _, j := range done.Jobs {
		c.commit(j.ID)
	}
	return dups, err
}

// TestAgentDoneInEarlyReply: a Done notice that arrives on a poll sent
// while the last batch was still folding is acted on only after that batch's
// barrier, so the shipped object covers every fold and the result is exact.
func TestAgentDoneInEarlyReply(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100) // 40 jobs
	h := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), 1)
	client := &earlyDone{batchTracker: newBatchTracker(InProcAgent{Head: h.Head})}
	obj, reports, err := h.run(AgentConfig{
		Site: 0, Name: "early", Cores: 2, RetrievalThreads: 2, RequestBatch: 4,
		Sources: map[int]chunk.Source{0: src},
		Head:    client,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !client.sawEarlyDone.Load() {
		t.Fatal("the Done notice never arrived on an early poll")
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if len(reports) != 1 || reports[0].Jobs.Total() != ix.NumChunks() {
		t.Errorf("reports = %+v, want one cluster with all %d jobs", reports, ix.NumChunks())
	}
}

// fenceDuringEarlyPoll holds the second poll — the early poll sent with the
// first batch — until the site is fenced, then returns it late, and checks
// that the agent never re-registers while a poll is still in flight.
type fenceDuringEarlyPoll struct {
	QueryClient
	fenced chan struct{}

	mu         sync.Mutex
	polls      int
	inPoll     int
	registered int
	violation  string
}

func (c *fenceDuringEarlyPoll) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	c.mu.Lock()
	c.polls++
	n := c.polls
	c.inPoll++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.inPoll--
		c.mu.Unlock()
	}()
	if n == 2 {
		if !wait(c.fenced) {
			return protocol.PollReply{}, fmt.Errorf("site never fenced")
		}
		time.Sleep(20 * time.Millisecond) // a re-registration racing this poll would land now
	}
	return c.QueryClient.Poll(req)
}

func (c *fenceDuringEarlyPoll) RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error) {
	c.mu.Lock()
	c.registered++
	if c.inPoll > 0 && c.violation == "" {
		c.violation = fmt.Sprintf("registration %d sent with a poll in flight", c.registered)
	}
	c.mu.Unlock()
	return c.QueryClient.RegisterSite(hello)
}

// TestAgentFenceWithEarlyPollInFlight fences the site while the early poll
// is in flight. The agent must collect that poll before re-registering, so
// its requests stay in wire order, then recover to the exact result.
func TestAgentFenceWithEarlyPollInFlight(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100) // 40 jobs
	placement := jobs.SplitByFraction(len(ix.Files), 1, 0, 1)
	h := newFaultHead(t, ix, placement, 1, nil, time.Hour)
	client := &fenceDuringEarlyPoll{QueryClient: InProcAgent{Head: h.Head}, fenced: make(chan struct{})}
	// The third read belongs to the first batch, granted by poll 1.
	fsrc := &fencingSource{Source: src, after: 3, fence: func() {
		h.FailSite(0)
		close(client.fenced)
	}}
	obj, _, err := h.run(AgentConfig{
		Site: 0, Name: "fenced", Cores: 2, RetrievalThreads: 2, RequestBatch: 4,
		Sources: map[int]chunk.Source{0: fsrc},
		Head:    client,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	client.mu.Lock()
	defer client.mu.Unlock()
	if client.violation != "" {
		t.Error(client.violation)
	}
	if client.registered != 2 {
		t.Errorf("registered %d times, want 2", client.registered)
	}
}

// staleDoneProbe holds every SubmitResult until each poll sent so far has
// been answered, so a poll in flight during a submission is answered as if
// the result had not landed; it counts spec fetches and submissions per
// query.
type staleDoneProbe struct {
	QueryClient

	mu             sync.Mutex
	sent, answered int
	specs, submits map[int]int
}

func (p *staleDoneProbe) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	p.mu.Lock()
	p.sent++
	p.mu.Unlock()
	rep, err := p.QueryClient.Poll(req)
	p.mu.Lock()
	p.answered++
	p.mu.Unlock()
	return rep, err
}

func (p *staleDoneProbe) QuerySpec(site, query int) (protocol.JobSpec, error) {
	p.mu.Lock()
	p.specs[query]++
	p.mu.Unlock()
	return p.QueryClient.QuerySpec(site, query)
}

func (p *staleDoneProbe) SubmitResult(res protocol.ReductionResult) error {
	deadline := time.Now().Add(overlapDeadline)
	for {
		p.mu.Lock()
		caughtUp := p.answered == p.sent
		if caughtUp {
			p.submits[res.Query]++
		}
		p.mu.Unlock()
		if caughtUp {
			return p.QueryClient.SubmitResult(res)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("a poll stayed in flight for %v", overlapDeadline)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAgentIgnoresStaleDone: a query's Done can arrive on the reply to a
// poll that was in flight while the agent submitted that query's result.
// The agent must not act on it again — a second spec fetch and an empty
// second submission.
func TestAgentIgnoresStaleDone(t *testing.T) {
	ixY, srcY, wantY := buildNamedDataset(t, "y", 400, 400, 100, 0)   // 4 jobs
	ixX, srcX, wantX := buildNamedDataset(t, "x", 4000, 1000, 100, 3) // 40 jobs
	h, err := head.New(head.Config{ExpectClusters: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	admit := func(ix *chunk.Index) *head.Query {
		t.Helper()
		pool, err := jobs.NewPool(ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), jobs.Options{})
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
	qY, qX := admit(ixY), admit(ixX)
	probe := &staleDoneProbe{QueryClient: InProcAgent{Head: h}, specs: map[int]int{}, submits: map[int]int{}}
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgent(context.Background(), AgentConfig{
			Site: 0, Name: "stale", Cores: 2, RetrievalThreads: 2, RequestBatch: 4,
			SourceBuilder: func(ix *chunk.Index) (map[int]chunk.Source, error) {
				if strings.HasPrefix(ix.Files[0].Name, "y") {
					return map[int]chunk.Source{0: srcY}, nil
				}
				return map[int]chunk.Source{0: srcX}, nil
			},
			Head: probe,
		})
	}()
	for _, c := range []struct {
		q    *head.Query
		want uint64
	}{{qY, wantY}, {qX, wantX}} {
		obj, _, _, err := c.q.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.(*sumObj).total; got != c.want {
			t.Errorf("query %d: sum = %d, want %d", c.q.ID(), got, c.want)
		}
	}
	h.Shutdown()
	if err := <-agentErr; err != nil {
		t.Fatal(err)
	}
	probe.mu.Lock()
	defer probe.mu.Unlock()
	for _, q := range []*head.Query{qY, qX} {
		if probe.specs[q.ID()] != 1 || probe.submits[q.ID()] != 1 {
			t.Errorf("query %d: %d spec fetches and %d submissions, want 1 each",
				q.ID(), probe.specs[q.ID()], probe.submits[q.ID()])
		}
	}
}

// TestAgentCacheSeparatesDatasets runs three queries through one agent and
// one stage cache: dataset A, then dataset B — the same file and chunk
// layout, other bytes, no checksums to catch a mix-up — then A again. B must
// not be served A's cached chunks, and the second pass over A must hit the
// cache the first one filled.
func TestAgentCacheSeparatesDatasets(t *testing.T) {
	const units, fileUnits, chunkUnits = 2000, 500, 100
	ixA, srcA, wantA := buildNamedDataset(t, "a", units, fileUnits, chunkUnits, 0)
	ixB, srcB, wantB := buildNamedDataset(t, "b", units, fileUnits, chunkUnits, 7)
	if ixA.HasChecksums() || ixB.HasChecksums() {
		t.Fatal("datasets carry checksums")
	}

	h, err := head.New(head.Config{ExpectClusters: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	cache := stagecache.New(stagecache.Config{CapacityBytes: 1 << 20}, nil)
	defer cache.Close()
	agentErr := make(chan error, 1)
	go func() {
		// The agent sits at site 1 and every file lives at site 0, so every
		// read goes through the cache.
		agentErr <- RunAgent(context.Background(), AgentConfig{
			Site: 1, Name: "burst", Cores: 2,
			SourceBuilder: func(ix *chunk.Index) (map[int]chunk.Source, error) {
				if strings.HasPrefix(ix.Files[0].Name, "a") {
					return map[int]chunk.Source{0: srcA}, nil
				}
				return map[int]chunk.Source{0: srcB}, nil
			},
			Cache: cache,
			Head:  InProcAgent{Head: h},
		})
	}()
	runQuery := func(ix *chunk.Index, want uint64) {
		t.Helper()
		pool, err := jobs.NewPool(ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), jobs.Options{})
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
		obj, _, _, err := q.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.(*sumObj).total; got != want {
			t.Errorf("query %d: sum = %d, want %d", q.ID(), got, want)
		}
	}
	runQuery(ixA, wantA)
	runQuery(ixB, wantB)
	before := cache.Snapshot().Hits
	runQuery(ixA, wantA)
	h.Shutdown()
	if err := <-agentErr; err != nil {
		t.Fatal(err)
	}
	if hits := cache.Snapshot().Hits - before; hits != int64(ixA.NumChunks()) {
		t.Errorf("second pass over A hit the cache %d times, want %d", hits, ixA.NumChunks())
	}
}

// rttClient adds a fixed delay to every Poll and CompleteJobs, standing in
// for the head round trip.
type rttClient struct {
	QueryClient
	rtt time.Duration
}

func (c rttClient) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	time.Sleep(c.rtt)
	return c.QueryClient.Poll(req)
}

func (c rttClient) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	time.Sleep(c.rtt)
	return c.QueryClient.CompleteJobs(done)
}

// slowSource adds a fixed delay to every read.
type slowSource struct {
	chunk.Source
	delay time.Duration
}

func (s slowSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	time.Sleep(s.delay)
	return s.Source.ReadChunk(ref)
}

// BenchmarkAgentControlRTT times one query on one agent against a head
// whose Poll and CompleteJobs each cost a fixed round trip, with and
// without a per-read delay: 160 × 1 KiB chunks, 4 cores, 2 lanes. One op is
// admission to the query's final object. It records numbers and gates
// nothing; see docs/PERFORMANCE.md for the table.
func BenchmarkAgentControlRTT(b *testing.B) {
	ix, mem, _ := buildDataset(b, 160*256, 16*256, 256)
	placement := jobs.SplitByFraction(len(ix.Files), 1, 0, 1)
	spec := protocol.JobSpec{App: "cluster-test-sum", UnitSize: 4, GroupBytes: 1 << 10}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ rtt, read time.Duration }{
		{0, 2 * time.Millisecond},
		{2 * time.Millisecond, 0},
		{2 * time.Millisecond, 2 * time.Millisecond},
	} {
		b.Run(fmt.Sprintf("rtt=%v/read=%v", c.rtt, c.read), func(b *testing.B) {
			src := slowSource{mem, c.read}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pool, err := jobs.NewPool(ix, placement, jobs.Options{})
				if err != nil {
					b.Fatal(err)
				}
				h, err := head.New(head.Config{ExpectClusters: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec, ExpectAll: true})
				if err != nil {
					b.Fatal(err)
				}
				done := make(chan error, 1)
				go func() {
					done <- RunAgent(context.Background(), AgentConfig{
						Site: 0, Name: "bench", Cores: 4, RetrievalThreads: 2,
						Sources: map[int]chunk.Source{0: src},
						Head:    rttClient{InProcAgent{Head: h}, c.rtt},
					})
				}()
				if _, _, _, err := q.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				h.Shutdown()
				if err := <-done; err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
