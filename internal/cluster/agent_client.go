package cluster

import (
	"fmt"
	"sync"

	"repro/internal/head"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// QueryClient is the agent's view of a multi-query head: one registration
// and one session shared by every admitted query, with per-query spec
// fetches, commits, checkpoints and results. Implementations: InProcAgent
// (same process) and RemoteAgent (proto-1 wire session).
type QueryClient interface {
	// RegisterSite opens the shared session; per-query specs are fetched
	// lazily with QuerySpec as queries first appear in a poll.
	RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error)
	// QuerySpec fetches one query's job specification (plus this site's
	// recovery checkpoint for it, if any).
	QuerySpec(site, query int) (protocol.JobSpec, error)
	// Poll asks for up to req.N jobs across all queries; see head.PollFrom.
	// The full request travels so completed trace spans (and the clock
	// sample that aligns them) piggyback on the poll.
	Poll(req protocol.PollRequest) (protocol.PollReply, error)
	// CompleteJobs commits finished jobs for one query and returns the IDs
	// the head deduplicated; their contribution must not be folded.
	CompleteJobs(done protocol.JobsDone) ([]int, error)
	// Heartbeat renews the site's liveness lease (fire-and-forget).
	Heartbeat(site int) error
	// Checkpoint persists a per-query reduction-object checkpoint.
	Checkpoint(cs protocol.CheckpointSave) error
	// SubmitResult delivers one query's reduction object. It returns as
	// soon as the head acknowledges, so the agent keeps serving its other
	// queries.
	SubmitResult(res protocol.ReductionResult) error
}

// InProcAgent adapts a head.Head in the same process to QueryClient.
type InProcAgent struct{ Head *head.Head }

// RegisterSite implements QueryClient.
func (c InProcAgent) RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error) {
	return c.Head.RegisterSite(hello)
}

// QuerySpec implements QueryClient.
func (c InProcAgent) QuerySpec(site, query int) (protocol.JobSpec, error) {
	return c.Head.QuerySpec(site, query)
}

// Poll implements QueryClient.
func (c InProcAgent) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	return c.Head.PollFrom(req)
}

// CompleteJobs implements QueryClient.
func (c InProcAgent) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	return c.Head.CompleteQueryJobs(done.Query, done.Site, done.Jobs)
}

// Heartbeat implements QueryClient.
func (c InProcAgent) Heartbeat(site int) error {
	c.Head.Heartbeat(site)
	return nil
}

// Checkpoint implements QueryClient.
func (c InProcAgent) Checkpoint(cs protocol.CheckpointSave) error {
	return c.Head.CheckpointSave(cs)
}

// SubmitResult implements QueryClient.
func (c InProcAgent) SubmitResult(res protocol.ReductionResult) error {
	return c.Head.SubmitQueryResult(res)
}

// RemoteAgent speaks the multi-query (proto 1) master protocol over one
// transport connection.
//
// The session is pipelined: the agent's retrieval lanes, its poll loop and
// its heartbeats may all have requests on the wire at once. The head
// answers every request exactly once, in arrival order, so replies
// correlate by position — each caller's turn to read comes when every
// earlier request's reply has been read. Heartbeats are fire-and-forget (no
// reply, so no turn), matching the head's handler. The first Send or Recv
// failure breaks the session: every queued and later caller gets that error
// instead of waiting for a reply.
//
// The session starts in gob (so the Hello is readable regardless of
// negotiation state) and advertises the binary codec in Hello.Codec; when
// the head confirms it in SiteSpec.Codec, both directions upgrade for the
// rest of the session. Registration is therefore the session's first
// exchange and must complete before any concurrent request is sent.
type RemoteAgent struct {
	conn *transport.Conn
	// useGob disables the binary-codec advertisement (see SetUseGob).
	useGob bool

	// sendMu makes a request's Send and its ticket one step, so ticket
	// order is wire order.
	sendMu sync.Mutex
	sent   uint64 // tickets issued; guarded by sendMu

	mu     sync.Mutex
	turn   *sync.Cond // broadcast when read advances or the session breaks
	read   uint64     // replies consumed; ticket t reads once read == t
	broken error      // first transport failure; sticky
}

// NewRemoteAgent wraps an established connection to the head node.
func NewRemoteAgent(conn *transport.Conn) *RemoteAgent {
	r := &RemoteAgent{conn: conn}
	r.turn = sync.NewCond(&r.mu)
	return r
}

// DialAgent connects a multi-query agent to the head node at addr.
func DialAgent(network, addr string) (*RemoteAgent, error) {
	conn, err := transport.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewRemoteAgent(conn), nil
}

// SetUseGob pins the whole session to the gob compat codec, for drills
// against old heads or for bisecting codec issues (see the workernode
// -wire-codec flag). Call it before RegisterSite.
func (r *RemoteAgent) SetUseGob(v bool) { r.useGob = v }

// Close closes the underlying connection.
func (r *RemoteAgent) Close() error { return r.conn.Close() }

// err reports the session's sticky failure, if any.
func (r *RemoteAgent) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.broken
}

// fail breaks the session with err unless it is already broken, waking
// every queued caller.
func (r *RemoteAgent) fail(err error) {
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
func (r *RemoteAgent) roundTrip(req protocol.Message) (protocol.Message, error) {
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

// RegisterSite implements QueryClient; it also performs the wire-codec
// negotiation, upgrading both directions when the SiteSpec confirms binary.
func (r *RemoteAgent) RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error) {
	hello.Proto = protocol.ProtoMulti
	if !r.useGob {
		hello.Codec = protocol.WireBinary
	}
	reply, err := r.roundTrip(hello)
	if err != nil {
		return protocol.SiteSpec{}, err
	}
	switch m := reply.(type) {
	case protocol.SiteSpec:
		if m.Codec == protocol.WireBinary {
			// The head sent this SiteSpec in the old codec and switches right
			// after; mirror it for everything that follows.
			r.conn.UpgradeSend(transport.CodecBinary)
			r.conn.UpgradeRecv(transport.CodecBinary)
		}
		return m, nil
	case protocol.ErrorReply:
		return protocol.SiteSpec{}, head.CodeError(m.Code, m.Err)
	default:
		return protocol.SiteSpec{}, fmt.Errorf("cluster: unexpected reply %T to Hello", reply)
	}
}

// QuerySpec implements QueryClient.
func (r *RemoteAgent) QuerySpec(site, query int) (protocol.JobSpec, error) {
	reply, err := r.roundTrip(protocol.QuerySpecRequest{Site: site, Query: query})
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

// Poll implements QueryClient.
func (r *RemoteAgent) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	reply, err := r.roundTrip(req)
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

// CompleteJobs implements QueryClient. The ack carries the IDs the head
// deduplicated; their contribution must not be folded.
func (r *RemoteAgent) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	reply, err := r.roundTrip(done)
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

// Heartbeat implements QueryClient. No reply is expected, so it takes no
// ticket in the reply queue.
func (r *RemoteAgent) Heartbeat(site int) error {
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

// Checkpoint implements QueryClient.
func (r *RemoteAgent) Checkpoint(cs protocol.CheckpointSave) error {
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

// SubmitResult implements QueryClient.
func (r *RemoteAgent) SubmitResult(res protocol.ReductionResult) error {
	reply, err := r.roundTrip(res)
	if err != nil {
		return err
	}
	switch m := reply.(type) {
	case protocol.ResultAck:
		if m.Err != "" {
			return head.CodeError(m.Code, m.Err)
		}
		return nil
	case protocol.ErrorReply:
		return head.CodeError(m.Code, m.Err)
	default:
		return fmt.Errorf("cluster: unexpected reply %T to ReductionResult", reply)
	}
}

var (
	_ QueryClient = InProcAgent{}
	_ QueryClient = (*RemoteAgent)(nil)
)
