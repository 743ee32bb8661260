package head

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// sumReducer sums little-endian uint32 units; Decode rejects wrong sizes.
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

func encodeSum(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func testHead(t *testing.T, clusters int) *Head {
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
	// The pipe- and TCP-based protocol tests speak gob (the transport
	// default), which is opt-in since the binary codec became the default:
	// the test head opts in explicitly.
	h, err := New(Config{Pool: pool, Reducer: sumReducer{}, Spec: spec, ExpectClusters: clusters,
		Tuning: config.Tuning{WireCodec: config.CodecGob}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// reqJobs adapts the typed Poll reply back to the old (jobs, wait, err)
// triple the single-query tests were written against.
func reqJobs(h *Head, site, n int) ([]jobs.Job, bool, error) {
	rep, err := h.Poll(site, n)
	if err != nil {
		return nil, false, err
	}
	var js []jobs.Job
	for _, qj := range rep.Queries {
		js = append(js, qj.Jobs...)
	}
	return js, rep.Wait, nil
}

func TestNewValidation(t *testing.T) {
	ix, _ := chunk.Layout("h", 10, 4, 10, 5)
	pool, _ := jobs.NewPool(ix, jobs.Placement{0}, jobs.Options{})
	// A head without a pool is a valid multi-query head awaiting Admit.
	if _, err := New(Config{Reducer: sumReducer{}, ExpectClusters: 1, Logf: func(string, ...any) {}}); err != nil {
		t.Errorf("pool-less multi-query head rejected: %v", err)
	}
	if _, err := New(Config{Pool: pool, ExpectClusters: 1}); err == nil {
		t.Error("nil reducer accepted")
	}
	if _, err := New(Config{Pool: pool, Reducer: sumReducer{}}); err == nil {
		t.Error("zero ExpectClusters accepted")
	}
}

func TestRegisterSpecAndLimit(t *testing.T) {
	h := testHead(t, 1)
	spec, err := h.Register(protocol.Hello{Site: 0, Cluster: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.App != "sum" || len(spec.Index) == 0 {
		t.Errorf("spec = %+v", spec)
	}
	if _, err := h.Register(protocol.Hello{Site: 1, Cluster: "b"}); err == nil {
		t.Error("over-registration accepted")
	}
}

func TestSubmitResultBlocksUntilAll(t *testing.T) {
	h := testHead(t, 2)
	h.Register(protocol.Hello{Site: 0, Cluster: "a"})
	h.Register(protocol.Hello{Site: 1, Cluster: "b"})

	first := make(chan []byte, 1)
	go func() {
		final, err := h.SubmitResult(protocol.ReductionResult{Site: 0, Object: encodeSum(40)})
		if err != nil {
			t.Errorf("first submit: %v", err)
		}
		first <- final
	}()
	select {
	case <-first:
		t.Fatal("first submitter returned before second cluster reported")
	case <-time.After(20 * time.Millisecond):
	}
	final2, err := h.SubmitResult(protocol.ReductionResult{Site: 1, Object: encodeSum(2)})
	if err != nil {
		t.Fatal(err)
	}
	final1 := <-first
	obj, reports, grTime, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != 42 {
		t.Errorf("final = %d, want 42", got)
	}
	if string(final1) != string(final2) || string(final1) != string(encodeSum(42)) {
		t.Errorf("encoded finals differ: %v vs %v", final1, final2)
	}
	if len(reports) != 2 {
		t.Errorf("reports = %d", len(reports))
	}
	if grTime < 0 {
		t.Errorf("grTime = %v", grTime)
	}
}

func TestSubmitResultDecodeErrorFailsRun(t *testing.T) {
	h := testHead(t, 2)
	h.Register(protocol.Hello{Site: 0, Cluster: "a"})
	h.Register(protocol.Hello{Site: 1, Cluster: "b"})
	done := make(chan error, 1)
	go func() {
		_, err := h.SubmitResult(protocol.ReductionResult{Site: 0, Object: encodeSum(1)})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	if _, err := h.SubmitResult(protocol.ReductionResult{Site: 1, Object: []byte("bad")}); err == nil {
		t.Error("bad object accepted")
	}
	if err := <-done; err == nil {
		t.Error("waiter not released with error")
	}
	if _, _, _, err := h.Result(); err == nil {
		t.Error("Result did not surface failure")
	}
}

func TestRequestAndCompleteJobs(t *testing.T) {
	h := testHead(t, 1)
	js, wait, _ := reqJobs(h, 0, 3)
	if len(js) != 3 {
		t.Fatalf("granted %d", len(js))
	}
	if wait {
		t.Error("wait = true on a non-empty grant")
	}
	dups, err := h.CompleteJobs(0, js)
	if err != nil {
		t.Fatal(err)
	}
	if len(dups) != 0 {
		t.Errorf("first completion flagged dups %v", dups)
	}
	// A second completion of the same jobs is deduplicated, not an error:
	// that is how speculative copies are absorbed.
	dups, err = h.CompleteJobs(0, js)
	if err != nil {
		t.Fatal(err)
	}
	if len(dups) != len(js) {
		t.Errorf("double completion: %d dups, want %d", len(dups), len(js))
	}
}

// TestHandleConnProtocol drives a full master session over an in-process
// pipe: Hello → SiteSpec, QuerySpecRequest → JobSpec, PollRequest/JobsDone
// until the query appears in Done, then ReductionResult → ResultAck and
// ResultRequest → Finished.
func TestHandleConnProtocol(t *testing.T) {
	h := testHead(t, 1)
	a, b := transport.Pipe()
	go h.HandleConn(b)
	defer a.Close()

	if err := a.Send(protocol.Hello{Site: 0, Cluster: "pipe", Cores: 2, Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.(protocol.SiteSpec); !ok {
		t.Fatalf("Hello reply = %T", reply)
	}
	if err := a.Send(protocol.QuerySpecRequest{Site: 0, Query: 0}); err != nil {
		t.Fatal(err)
	}
	reply, err = a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := reply.(protocol.JobSpec)
	if !ok {
		t.Fatalf("QuerySpecRequest reply = %T", reply)
	}
	if spec.App != "sum" {
		t.Errorf("spec = %+v", spec)
	}
	// Drain the pool, then wait for the query to show up in Done.
	granted := 0
	for done := false; !done; {
		if err := a.Send(protocol.PollRequest{Site: 0, N: 4}); err != nil {
			t.Fatal(err)
		}
		reply, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		rep, ok := reply.(protocol.PollReply)
		if !ok {
			t.Fatalf("PollRequest reply = %T", reply)
		}
		for _, id := range rep.Done {
			if id == 0 {
				done = true
			}
		}
		for _, qj := range rep.Queries {
			granted += len(qj.Jobs)
			if err := a.Send(protocol.JobsDone{Site: 0, Query: qj.Query, Jobs: qj.Jobs}); err != nil {
				t.Fatal(err)
			}
			reply, err = a.Recv()
			if err != nil {
				t.Fatal(err)
			}
			ack, ok := reply.(protocol.JobsDoneAck)
			if !ok {
				t.Fatalf("JobsDone reply = %T", reply)
			}
			if ack.Err != "" || len(ack.Dup) != 0 {
				t.Fatalf("ack = %+v", ack)
			}
		}
	}
	if granted != 10 {
		t.Errorf("granted %d jobs, want 10", granted)
	}
	if err := a.Send(protocol.ReductionResult{Site: 0, Query: 0, Object: encodeSum(7)}); err != nil {
		t.Fatal(err)
	}
	reply, err = a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := reply.(protocol.ResultAck); !ok || ack.Err != "" {
		t.Fatalf("ReductionResult reply = %#v", reply)
	}
	if err := a.Send(protocol.ResultRequest{Site: 0, Query: 0}); err != nil {
		t.Fatal(err)
	}
	reply, err = a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	fin, ok := reply.(protocol.Finished)
	if !ok {
		t.Fatalf("reply = %T", reply)
	}
	if string(fin.Object) != string(encodeSum(7)) {
		t.Errorf("final = %v", fin.Object)
	}
	obj, _, _, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if obj.(*sumObj).total != 7 {
		t.Errorf("total = %d", obj.(*sumObj).total)
	}
}

// TestHandleConnRejectsProtoSingle pins the deprecation window's close: a
// ProtoSingle Hello on the wire is answered with an ErrorReply naming the
// required upgrade, not a JobSpec.
func TestHandleConnRejectsProtoSingle(t *testing.T) {
	h := testHead(t, 1)
	a, b := transport.Pipe()
	done := make(chan struct{})
	go func() { h.HandleConn(b); close(done) }()
	defer a.Close()
	if err := a.Send(protocol.Hello{Site: 0, Cluster: "old"}); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	er, ok := reply.(protocol.ErrorReply)
	if !ok {
		t.Fatalf("reply = %T, want ErrorReply", reply)
	}
	if want := "retired"; !strings.Contains(er.Err, want) {
		t.Errorf("error %q does not mention %q", er.Err, want)
	}
	<-done
	// The rejected master must not have been registered: a ProtoMulti
	// session can still claim the head's single slot.
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Cluster: "new", Proto: protocol.ProtoMulti}); err != nil {
		t.Errorf("multi registration after rejected single Hello: %v", err)
	}
}

// TestHandleConnGobOptIn pins the codec demotion: a head on the default
// binary codec refuses a gob session (Hello without the binary advert) with
// a one-line ErrorReply, while a head started with -wire-codec=gob accepts
// it and never upgrades.
func TestHandleConnGobOptIn(t *testing.T) {
	ix, err := chunk.Layout("h", 100, 4, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := jobs.NewPool(ix, jobs.Placement{0, 1}, jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{Pool: pool, Reducer: sumReducer{}, Spec: protocol.JobSpec{App: "sum", UnitSize: 4},
		ExpectClusters: 1, Logf: t.Logf}) // default tuning: binary
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	a, b := transport.Pipe()
	done := make(chan struct{})
	go func() { h.HandleConn(b); close(done) }()
	defer a.Close()
	if err := a.Send(protocol.Hello{Site: 0, Cluster: "gob", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	er, ok := reply.(protocol.ErrorReply)
	if !ok {
		t.Fatalf("reply = %T, want ErrorReply", reply)
	}
	if want := "-wire-codec=gob"; !strings.Contains(er.Err, want) {
		t.Errorf("error %q does not mention %q", er.Err, want)
	}
	<-done

	// Opted-in head: the same Hello gets a SiteSpec with no codec upgrade.
	h2 := testHead(t, 2)
	defer h2.Shutdown()
	a2, b2 := transport.Pipe()
	go h2.HandleConn(b2)
	defer a2.Close()
	if err := a2.Send(protocol.Hello{Site: 0, Cluster: "gob", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	reply, err = a2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := reply.(protocol.SiteSpec)
	if !ok {
		t.Fatalf("reply = %T, want SiteSpec", reply)
	}
	if spec.Codec != 0 {
		t.Errorf("gob-pinned head offered codec upgrade %d", spec.Codec)
	}

	// A gob-pinned head must not upgrade a binary-advertising master either:
	// both directions of its sessions stay gob.
	a3, b3 := transport.Pipe()
	go h2.HandleConn(b3)
	defer a3.Close()
	if err := a3.Send(protocol.Hello{Site: 1, Cluster: "bin", Proto: protocol.ProtoMulti,
		Codec: protocol.WireBinary}); err != nil {
		t.Fatal(err)
	}
	reply, err = a3.Recv()
	if err != nil {
		t.Fatal(err)
	}
	spec, ok = reply.(protocol.SiteSpec)
	if !ok {
		t.Fatalf("reply = %T, want SiteSpec", reply)
	}
	if spec.Codec != 0 {
		t.Errorf("gob-pinned head confirmed binary upgrade %d", spec.Codec)
	}
}

func TestHandleConnUnexpectedMessage(t *testing.T) {
	h := testHead(t, 1)
	a, b := transport.Pipe()
	done := make(chan struct{})
	go func() { h.HandleConn(b); close(done) }()
	defer a.Close()
	if err := a.Send(protocol.GetReq{Key: "nope"}); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.(protocol.ErrorReply); !ok {
		t.Errorf("reply = %T, want ErrorReply", reply)
	}
	<-done // handler must close the session
}

func TestLostMasterFailsRun(t *testing.T) {
	h := testHead(t, 2)
	a, b := transport.Pipe()
	go h.HandleConn(b)
	if err := a.Send(protocol.Hello{Site: 0, Cluster: "doomed", Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}
	a.Close() // master dies mid-run
	if _, _, _, err := h.Result(); err == nil {
		t.Error("run did not fail after losing a registered master")
	}
}

func TestServeOverTCP(t *testing.T) {
	h := testHead(t, 2)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)
	defer h.Close()

	runMaster := func(site int, amount uint64) error {
		c, err := transport.Dial("tcp", l.Addr().String())
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.Send(protocol.Hello{Site: site, Cluster: fmt.Sprint(site), Proto: protocol.ProtoMulti}); err != nil {
			return err
		}
		reply, err := c.Recv()
		if err != nil {
			return err
		}
		if _, ok := reply.(protocol.SiteSpec); !ok {
			return fmt.Errorf("Hello reply = %T", reply)
		}
		for done := false; !done; {
			if err := c.Send(protocol.PollRequest{Site: site, N: 2}); err != nil {
				return err
			}
			reply, err := c.Recv()
			if err != nil {
				return err
			}
			rep, ok := reply.(protocol.PollReply)
			if !ok {
				return fmt.Errorf("PollRequest reply = %T", reply)
			}
			for _, id := range rep.Done {
				if id == 0 {
					done = true
				}
			}
			for _, qj := range rep.Queries {
				if err := c.Send(protocol.JobsDone{Site: site, Query: qj.Query, Jobs: qj.Jobs}); err != nil {
					return err
				}
				reply, err = c.Recv()
				if err != nil {
					return err
				}
				if ack, ok := reply.(protocol.JobsDoneAck); !ok || ack.Err != "" {
					return fmt.Errorf("JobsDone reply = %#v", reply)
				}
			}
			if len(rep.Queries) == 0 && !done {
				time.Sleep(time.Millisecond) // the other master is still committing
			}
		}
		if err := c.Send(protocol.ReductionResult{Site: site, Query: 0, Object: encodeSum(amount)}); err != nil {
			return err
		}
		reply, err = c.Recv()
		if err != nil {
			return err
		}
		if ack, ok := reply.(protocol.ResultAck); !ok || ack.Err != "" {
			return fmt.Errorf("ReductionResult reply = %#v", reply)
		}
		if err := c.Send(protocol.ResultRequest{Site: site, Query: 0}); err != nil {
			return err
		}
		reply, err = c.Recv()
		if err != nil {
			return err
		}
		fin, ok := reply.(protocol.Finished)
		if !ok {
			return fmt.Errorf("ResultRequest reply = %T", reply)
		}
		if string(fin.Object) != string(encodeSum(30)) {
			return fmt.Errorf("final object = %v", fin.Object)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runMaster(i, uint64(10*(i+1)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("master %d: %v", i, err)
		}
	}
	obj, _, _, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if obj.(*sumObj).total != 30 {
		t.Errorf("total = %d, want 30", obj.(*sumObj).total)
	}
}

// TestHandleConnAnswersPipelinedRequestsInOrder pins the invariant the
// pipelined master session depends on: requests written back to back,
// without waiting for replies, are answered exactly once each and in
// arrival order, and heartbeats interleaved among them get no reply. Error
// outcomes (a completion for a job never granted, a checkpoint with
// checkpointing disabled, an unknown query) still take exactly one reply.
func TestHandleConnAnswersPipelinedRequestsInOrder(t *testing.T) {
	h := testHead(t, 1)
	a, b := transport.Pipe()
	go h.HandleConn(b)
	defer a.Close()

	reqs := []protocol.Message{
		protocol.Hello{Site: 0, Cluster: "pipe", Cores: 2, Proto: protocol.ProtoMulti},
		protocol.PollRequest{Site: 0, N: 2},
		protocol.QuerySpecRequest{Site: 0, Query: 0},
		protocol.Heartbeat{Site: 0},
		protocol.JobsDone{Site: 0, Query: 0, Jobs: []jobs.Job{{ID: 999}}},
		protocol.CheckpointSave{Site: 0, Seq: 1, Query: 0},
		protocol.QuerySpecRequest{Site: 0, Query: 42},
		protocol.Heartbeat{Site: 0},
		protocol.Heartbeat{Site: 0},
		protocol.PollRequest{Site: 0, N: 2},
		protocol.QuerySpecRequest{Site: 0, Query: 0},
		protocol.Heartbeat{Site: 0},
		protocol.PollRequest{Site: 0, N: 1},
	}
	want := []string{
		"protocol.SiteSpec", "protocol.PollReply", "protocol.JobSpec",
		"protocol.JobsDoneAck", "protocol.CheckpointAck", "protocol.ErrorReply",
		"protocol.PollReply", "protocol.JobSpec", "protocol.PollReply",
	}
	sendErr := make(chan error, 1)
	go func() {
		for _, m := range reqs {
			if err := a.Send(m); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	for i, w := range want {
		reply, err := a.Recv()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got := fmt.Sprintf("%T", reply); got != w {
			t.Fatalf("reply %d = %s (%+v), want %s", i, got, reply, w)
		}
		switch m := reply.(type) {
		case protocol.JobSpec:
			if m.App != "sum" {
				t.Errorf("reply %d: spec = %+v", i, m)
			}
		case protocol.JobsDoneAck:
			if m.Err == "" {
				t.Errorf("reply %d: completing an ungranted job was acked cleanly", i)
			}
		case protocol.CheckpointAck:
			if m.Err == "" {
				t.Errorf("reply %d: checkpoint accepted with checkpointing disabled", i)
			}
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
}
