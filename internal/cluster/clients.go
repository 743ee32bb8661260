package cluster

import (
	"fmt"
	"sync"

	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// InProc adapts a head.Head running in the same process to the HeadClient
// interface — used by single-process deployments, examples and tests.
type InProc struct{ Head *head.Head }

// Register implements HeadClient.
func (c InProc) Register(hello protocol.Hello) (protocol.JobSpec, error) {
	return c.Head.Register(hello)
}

// Poll implements HeadClient.
func (c InProc) Poll(site, n int) (protocol.PollReply, error) {
	return c.Head.Poll(site, n)
}

// CompleteJobs implements HeadClient.
func (c InProc) CompleteJobs(site int, js []jobs.Job) ([]int, error) {
	return c.Head.CompleteJobs(site, js)
}

// Heartbeat implements HeadClient.
func (c InProc) Heartbeat(site int) error {
	c.Head.Heartbeat(site)
	return nil
}

// Checkpoint implements HeadClient.
func (c InProc) Checkpoint(cs protocol.CheckpointSave) error {
	return c.Head.CheckpointSave(cs)
}

// SubmitResult implements HeadClient.
func (c InProc) SubmitResult(res protocol.ReductionResult) ([]byte, error) {
	return c.Head.SubmitResult(res)
}

// Remote speaks the head protocol over one transport connection, presenting
// the single-query HeadClient surface on top of the multi-query wire
// dialect (the only one heads still serve): registration is Hello →
// SiteSpec → QuerySpecRequest for query 0, polling is PollRequest, and the
// final result is fetched with ResultRequest after the ReductionResult is
// acknowledged.
//
// The session is pipelined: any number of goroutines may have a request on
// the wire at once. The head answers every request exactly once, in arrival
// order, so replies correlate by position — each caller's turn to read comes
// when every earlier request's reply has been read. Heartbeats are
// fire-and-forget (no reply, so no turn), matching the head's handler. The
// first Send or Recv failure breaks the session: every queued and later
// caller gets that error instead of waiting for a reply.
//
// The session starts in gob (so the Hello is readable regardless of
// negotiation state) and advertises the binary codec in Hello.Codec; when
// the head confirms it in SiteSpec.Codec, both directions upgrade for the
// rest of the session. Registration is therefore the session's first
// exchange and must complete before any concurrent request is sent.
type Remote struct {
	conn *transport.Conn
	// UseGob disables the binary-codec advertisement, pinning the whole
	// session to the gob compat fallback (for drills against old heads or
	// for bisecting codec issues; see the workernode -wire-codec flag).
	UseGob bool

	// sendMu makes a request's Send and its ticket one step, so ticket
	// order is wire order.
	sendMu sync.Mutex
	sent   uint64 // tickets issued; guarded by sendMu

	mu     sync.Mutex
	turn   *sync.Cond // broadcast when read advances or the session breaks
	read   uint64     // replies consumed; ticket t reads once read == t
	broken error      // first transport failure; sticky
}

// NewRemote wraps an established connection to the head node.
func NewRemote(conn *transport.Conn) *Remote {
	r := &Remote{conn: conn}
	r.turn = sync.NewCond(&r.mu)
	return r
}

// DialHead connects to the head node at addr.
func DialHead(network, addr string) (*Remote, error) {
	conn, err := transport.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewRemote(conn), nil
}

// Close closes the underlying connection.
func (r *Remote) Close() error { return r.conn.Close() }

// err reports the session's sticky failure, if any.
func (r *Remote) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.broken
}

// fail breaks the session with err unless it is already broken, waking
// every queued caller.
func (r *Remote) fail(err error) {
	r.mu.Lock()
	if r.broken == nil {
		r.broken = err
	}
	r.turn.Broadcast()
	r.mu.Unlock()
}

// roundTrip sends req and returns its reply. The request goes out as soon
// as the send side is free; the caller then waits until the replies to all
// earlier requests have been read and reads the next one, which is its own.
func (r *Remote) roundTrip(req protocol.Message) (protocol.Message, error) {
	r.sendMu.Lock()
	if err := r.err(); err != nil {
		r.sendMu.Unlock()
		return nil, err
	}
	if err := r.conn.Send(req); err != nil {
		r.fail(err)
		r.sendMu.Unlock()
		return nil, err
	}
	ticket := r.sent
	r.sent++
	r.sendMu.Unlock()

	r.mu.Lock()
	for r.read != ticket && r.broken == nil {
		r.turn.Wait()
	}
	if err := r.broken; err != nil {
		r.mu.Unlock()
		return nil, err // the session broke; no reply can be matched any more
	}
	r.mu.Unlock()
	reply, err := r.conn.Recv()
	if err != nil {
		r.fail(err)
		return nil, err
	}
	r.mu.Lock()
	r.read++
	r.turn.Broadcast()
	r.mu.Unlock()
	return reply, nil
}

// Register implements HeadClient: Hello → SiteSpec, then a
// QuerySpecRequest for query 0 whose JobSpec (including any recovery
// checkpoint) is returned. The Hello also performs the wire-codec
// negotiation: it advertises binary, and if the SiteSpec confirms it the
// connection upgrades both directions before the next message.
func (r *Remote) Register(hello protocol.Hello) (protocol.JobSpec, error) {
	hello.Proto = protocol.ProtoMulti
	if !r.UseGob {
		hello.Codec = protocol.WireBinary
	}
	reply, err := r.roundTrip(hello)
	if err != nil {
		return protocol.JobSpec{}, err
	}
	switch m := reply.(type) {
	case protocol.SiteSpec:
		if m.Codec == protocol.WireBinary {
			// The head sent this SiteSpec in the old codec and switches right
			// after; mirror it for everything that follows.
			r.conn.UpgradeSend(transport.CodecBinary)
			r.conn.UpgradeRecv(transport.CodecBinary)
		}
	case protocol.ErrorReply:
		return protocol.JobSpec{}, head.CodeError(m.Code, m.Err)
	default:
		return protocol.JobSpec{}, fmt.Errorf("cluster: unexpected reply %T to Hello", reply)
	}
	reply, err = r.roundTrip(protocol.QuerySpecRequest{Site: hello.Site, Query: 0})
	if err != nil {
		return protocol.JobSpec{}, err
	}
	switch m := reply.(type) {
	case protocol.JobSpec:
		return m, nil
	case protocol.ErrorReply:
		return protocol.JobSpec{}, head.CodeError(m.Code, m.Err)
	default:
		return protocol.JobSpec{}, fmt.Errorf("cluster: unexpected reply %T to QuerySpecRequest", reply)
	}
}

// Poll implements HeadClient with the typed PollRequest/PollReply exchange.
func (r *Remote) Poll(site, n int) (protocol.PollReply, error) {
	reply, err := r.roundTrip(protocol.PollRequest{Site: site, N: n})
	if err != nil {
		return protocol.PollReply{}, err
	}
	switch m := reply.(type) {
	case protocol.PollReply:
		return m, nil
	case protocol.ErrorReply:
		return protocol.PollReply{}, head.CodeError(m.Code, m.Err)
	default:
		return protocol.PollReply{}, fmt.Errorf("cluster: unexpected reply %T to PollRequest", reply)
	}
}

// CompleteJobs implements HeadClient. The ack carries the IDs the head
// deduplicated; their contribution must not be folded.
func (r *Remote) CompleteJobs(site int, js []jobs.Job) ([]int, error) {
	reply, err := r.roundTrip(protocol.JobsDone{Site: site, Query: 0, Jobs: js})
	if err != nil {
		return nil, err
	}
	switch m := reply.(type) {
	case protocol.JobsDoneAck:
		if m.Err != "" {
			return m.Dup, head.CodeError(m.Code, m.Err)
		}
		return m.Dup, nil
	case protocol.ErrorReply:
		return nil, head.CodeError(m.Code, m.Err)
	default:
		return nil, fmt.Errorf("cluster: unexpected reply %T to JobsDone", reply)
	}
}

// Heartbeat implements HeadClient. No reply is expected.
func (r *Remote) Heartbeat(site int) error {
	// No reply, so no ticket in the reply queue.
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	if err := r.err(); err != nil {
		return err
	}
	if err := r.conn.Send(protocol.Heartbeat{Site: site}); err != nil {
		r.fail(err)
		return err
	}
	return nil
}

// Checkpoint implements HeadClient.
func (r *Remote) Checkpoint(cs protocol.CheckpointSave) error {
	reply, err := r.roundTrip(cs)
	if err != nil {
		return err
	}
	switch m := reply.(type) {
	case protocol.CheckpointAck:
		if m.Err != "" {
			return head.CodeError(m.Code, m.Err)
		}
		return nil
	case protocol.ErrorReply:
		return head.CodeError(m.Code, m.Err)
	default:
		return fmt.Errorf("cluster: unexpected reply %T to CheckpointSave", reply)
	}
}

// SubmitResult implements HeadClient: the reduction object is submitted
// (acked immediately), then a ResultRequest blocks until the head has the
// query's final object and returns it — the two-step multi-dialect
// equivalent of the old blocking submit.
func (r *Remote) SubmitResult(res protocol.ReductionResult) ([]byte, error) {
	res.Query = 0
	reply, err := r.roundTrip(res)
	if err != nil {
		return nil, err
	}
	switch m := reply.(type) {
	case protocol.ResultAck:
		if m.Err != "" {
			return nil, head.CodeError(m.Code, m.Err)
		}
	case protocol.ErrorReply:
		return nil, head.CodeError(m.Code, m.Err)
	default:
		return nil, fmt.Errorf("cluster: unexpected reply %T to ReductionResult", reply)
	}
	reply, err = r.roundTrip(protocol.ResultRequest{Site: res.Site, Query: 0})
	if err != nil {
		return nil, err
	}
	switch m := reply.(type) {
	case protocol.Finished:
		return m.Object, nil
	case protocol.ErrorReply:
		return nil, head.CodeError(m.Code, m.Err)
	default:
		return nil, fmt.Errorf("cluster: unexpected reply %T to ResultRequest", reply)
	}
}

var (
	_ HeadClient = InProc{}
	_ HeadClient = (*Remote)(nil)
)
