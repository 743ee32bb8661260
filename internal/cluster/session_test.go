package cluster

import (
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// sessionDeadline bounds every pipelined-session test: a client that
// serializes round trips deadlocks against the fake heads below, and the
// test must fail rather than hang.
const sessionDeadline = 5 * time.Second

// fakeHead is the head end of a pipe that reads `batch` requests before
// answering any, then answers each request (heartbeats excepted) in arrival
// order with a JobSpec naming the requested query, so a caller can tell its
// own reply from a neighbour's. With closeAfter ≥ 0 it instead answers only
// that many of the batch and closes the connection.
type fakeHead struct {
	conn       *transport.Conn
	batch      int
	closeAfter int

	mu         sync.Mutex
	heartbeats int
	order      []int // queries in wire order
}

func (f *fakeHead) serve() {
	defer f.conn.Close()
	var pending []int
	for len(pending) < f.batch {
		msg, err := f.conn.Recv()
		if err != nil {
			return
		}
		f.mu.Lock()
		switch m := msg.(type) {
		case protocol.Heartbeat:
			f.heartbeats++
		case protocol.QuerySpecRequest:
			pending = append(pending, m.Query)
			f.order = append(f.order, m.Query)
		}
		f.mu.Unlock()
	}
	for i, q := range pending {
		if f.closeAfter >= 0 && i == f.closeAfter {
			return
		}
		if err := f.conn.Send(protocol.JobSpec{App: strconv.Itoa(q)}); err != nil {
			return
		}
	}
}

// pipelinedSession connects a RemoteAgent to a fake head that reads batch
// requests before answering.
func pipelinedSession(t *testing.T, batch, closeAfter int) (*RemoteAgent, *fakeHead) {
	t.Helper()
	a, b := transport.Pipe()
	f := &fakeHead{conn: b, batch: batch, closeAfter: closeAfter}
	go f.serve()
	ra := NewRemoteAgent(a)
	t.Cleanup(func() { ra.Close() })
	return ra, f
}

// specResult is one caller's outcome.
type specResult struct {
	query int
	spec  protocol.JobSpec
	err   error
}

// querySpecs issues QuerySpec for each query from its own goroutine and
// collects the outcomes, failing the test if they do not all return within
// sessionDeadline.
func querySpecs(t *testing.T, ra *RemoteAgent, queries []int) []specResult {
	t.Helper()
	out := make(chan specResult, len(queries))
	for _, q := range queries {
		go func() {
			spec, err := ra.QuerySpec(0, q)
			out <- specResult{query: q, spec: spec, err: err}
		}()
	}
	var res []specResult
	timeout := time.After(sessionDeadline)
	for range queries {
		select {
		case r := <-out:
			res = append(res, r)
		case <-timeout:
			ra.Close() // unblock the stuck callers before failing
			t.Fatalf("%d of %d callers still waiting after %v: the session does not pipeline",
				len(queries)-len(res), len(queries), sessionDeadline)
		}
	}
	return res
}

// TestSessionPipelinesRequests runs against a head that reads two requests
// before answering either. A session that holds one request at a time
// deadlocks; a pipelined one gets both replies, each to its own caller.
func TestSessionPipelinesRequests(t *testing.T) {
	ra, _ := pipelinedSession(t, 2, -1)
	for _, r := range querySpecs(t, ra, []int{1, 2}) {
		if r.err != nil {
			t.Fatalf("query %d: %v", r.query, r.err)
		}
		if r.spec.App != strconv.Itoa(r.query) {
			t.Errorf("query %d got the reply for query %s", r.query, r.spec.App)
		}
	}
}

// TestSessionBrokenFailsEveryQueuedCaller closes the connection with
// callers queued behind unanswered requests: each must get an error, none
// may hang, and the session stays broken for later callers. Callers whose
// replies arrived before the close still get them.
func TestSessionBrokenFailsEveryQueuedCaller(t *testing.T) {
	const n = 6
	for _, answered := range []int{0, 2} {
		ra, f := pipelinedSession(t, n, answered)
		queries := make([]int, n)
		for i := range queries {
			queries[i] = i + 1
		}
		res := querySpecs(t, ra, queries)
		f.mu.Lock()
		first := make(map[int]bool, answered)
		for _, q := range f.order[:answered] {
			first[q] = true
		}
		f.mu.Unlock()
		failed := 0
		for _, r := range res {
			switch {
			case first[r.query]:
				if r.err != nil || r.spec.App != strconv.Itoa(r.query) {
					t.Errorf("answered=%d: query %d answered before the close, got (%+v, %v)",
						answered, r.query, r.spec, r.err)
				}
			case r.err == nil:
				t.Errorf("answered=%d: query %d succeeded on a closed session", answered, r.query)
			default:
				failed++
			}
		}
		if failed != n-answered {
			t.Errorf("answered=%d: %d callers failed, want %d", answered, failed, n-answered)
		}
		if _, err := ra.QuerySpec(0, 99); err == nil {
			t.Errorf("answered=%d: request on a broken session succeeded", answered)
		}
		if err := ra.Heartbeat(0); err == nil {
			t.Errorf("answered=%d: heartbeat on a broken session succeeded", answered)
		}
	}
}

// TestSessionHeartbeatTakesNoReply sends a heartbeat between two pipelined
// requests. Heartbeats get no reply, so the heartbeat must not claim a turn
// in the reply queue: both requests still receive their own replies.
func TestSessionHeartbeatTakesNoReply(t *testing.T) {
	ra, f := pipelinedSession(t, 2, -1)
	first := make(chan specResult, 1)
	go func() {
		spec, err := ra.QuerySpec(0, 1)
		first <- specResult{query: 1, spec: spec, err: err}
	}()
	// Wait until the first request is on the wire, so the heartbeat lands
	// strictly between the two requests.
	deadline := time.Now().Add(sessionDeadline)
	for {
		f.mu.Lock()
		sent := len(f.order)
		f.mu.Unlock()
		if sent == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the head")
		}
		time.Sleep(time.Millisecond)
	}
	hb := make(chan error, 1)
	go func() { hb <- ra.Heartbeat(0) }()
	select {
	case err := <-hb:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(sessionDeadline):
		ra.Close()
		t.Fatal("heartbeat blocked behind an outstanding request")
	}
	res := querySpecs(t, ra, []int{2})
	select {
	case r := <-first:
		res = append(res, r)
	case <-time.After(sessionDeadline):
		ra.Close()
		t.Fatal("first caller still waiting")
	}
	for _, r := range res {
		if r.err != nil {
			t.Fatalf("query %d: %v", r.query, r.err)
		}
		if r.spec.App != strconv.Itoa(r.query) {
			t.Errorf("query %d got the reply for query %s", r.query, r.spec.App)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.heartbeats != 1 {
		t.Errorf("head saw %d heartbeats, want 1", f.heartbeats)
	}
}

// TestSessionSendFailureBreaksSession pins the send side: a request that
// cannot be sent fails its caller, and the session refuses later requests
// instead of waiting for a reply that was never asked for.
func TestSessionSendFailureBreaksSession(t *testing.T) {
	a, b := transport.Pipe()
	b.Close()
	ra := NewRemoteAgent(a)
	defer ra.Close()
	_, err := ra.QuerySpec(0, 1)
	if err == nil {
		t.Fatal("request over a closed pipe succeeded")
	}
	if _, err2 := ra.QuerySpec(0, 2); !errors.Is(err2, err) {
		t.Fatalf("second request after a send failure = %v, want the session's first error %v", err2, err)
	}
}
