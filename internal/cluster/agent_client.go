package cluster

import (
	"fmt"

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
	// SubmitResult delivers one query's reduction object. Unlike the legacy
	// blocking submit it returns as soon as the head acknowledges, so the
	// agent keeps serving its other queries.
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
// transport connection. It shares Remote's pipelined session: the agent's
// retrieval lanes, its poll loop and its heartbeats may all have requests
// on the wire at once, with replies matched to callers in send order.
type RemoteAgent struct {
	remote *Remote
}

// NewRemoteAgent wraps an established connection to the head node.
func NewRemoteAgent(conn *transport.Conn) *RemoteAgent {
	return &RemoteAgent{remote: NewRemote(conn)}
}

// DialAgent connects a multi-query agent to the head node at addr.
func DialAgent(network, addr string) (*RemoteAgent, error) {
	conn, err := transport.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewRemoteAgent(conn), nil
}

// SetUseGob pins the session to the gob compat codec (see Remote.UseGob).
func (r *RemoteAgent) SetUseGob(v bool) { r.remote.UseGob = v }

// Close closes the underlying connection.
func (r *RemoteAgent) Close() error { return r.remote.conn.Close() }

// RegisterSite implements QueryClient; it also performs the wire-codec
// negotiation, upgrading both directions when the SiteSpec confirms binary.
func (r *RemoteAgent) RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error) {
	hello.Proto = protocol.ProtoMulti
	if !r.remote.UseGob {
		hello.Codec = protocol.WireBinary
	}
	reply, err := r.remote.roundTrip(hello)
	if err != nil {
		return protocol.SiteSpec{}, err
	}
	switch m := reply.(type) {
	case protocol.SiteSpec:
		if m.Codec == protocol.WireBinary {
			r.remote.conn.UpgradeSend(transport.CodecBinary)
			r.remote.conn.UpgradeRecv(transport.CodecBinary)
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
	reply, err := r.remote.roundTrip(protocol.QuerySpecRequest{Site: site, Query: query})
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
	reply, err := r.remote.roundTrip(req)
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

// CompleteJobs implements QueryClient.
func (r *RemoteAgent) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	reply, err := r.remote.roundTrip(done)
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

// Heartbeat implements QueryClient. No reply is expected.
func (r *RemoteAgent) Heartbeat(site int) error {
	return r.remote.Heartbeat(site)
}

// Checkpoint implements QueryClient.
func (r *RemoteAgent) Checkpoint(cs protocol.CheckpointSave) error {
	return r.remote.Checkpoint(cs)
}

// SubmitResult implements QueryClient.
func (r *RemoteAgent) SubmitResult(res protocol.ReductionResult) error {
	reply, err := r.remote.roundTrip(res)
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
