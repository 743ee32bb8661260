package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/protocol"
)

// The traced run measures every layer from outside the program: it times
// calls through the public interfaces (cluster.QueryClient, chunk.Source,
// core.Reducer, net.Conn) with decorators that record spans in memory. The
// untraced run builds none of them.

// Span layers. A span's parent is the query it works for (query spans are
// the roots); self time is a span's duration minus what its children cover.
const (
	layerQuery     = "query"
	layerHead      = "head"
	layerProtocol  = "protocol"
	layerRetrieval = "retrieval"
	layerCore      = "core"
	layerSync      = "sync"
)

// span is one timed call. Times are offsets from the probe's epoch.
type span struct {
	name, layer string
	pid         int // 0 head and load generator, 1+c cluster c
	start, end  time.Duration
	query       int // owning query, -1 for none
}

// Head RPC kinds the agent issues through its QueryClient.
const (
	rpcPoll = iota
	rpcComplete
	rpcSpec
	rpcSubmit
	nRPC
)

var rpcNames = [nRPC]string{"poll", "complete", "spec", "submit"}

// timing accumulates calls and their total duration.
type timing struct {
	n     int64
	total time.Duration
}

func (t *timing) add(d time.Duration) { t.n++; t.total += d }

// retrStat accumulates one cluster×source retrieval path.
type retrStat struct {
	timing
	bytes int64
}

// probe records one traced repetition.
type probe struct {
	id    uint64
	epoch time.Time

	mu        sync.Mutex
	spans     []span
	rpc       [nRPC]timing
	idlePolls int64
	retr      map[string]*retrStat // "<cluster>.<source>"
	fold      timing
	units     int64
	encode    timing
	decode    timing
	objBytes  int64 // encoded cluster reduction objects
	objN      int64
	submitAt  map[[2]int]time.Duration // (cluster, query) → SubmitResult call
	sync      [2]time.Duration
	admit     timing

	wireBytes, toCloudBytes, toLocalBytes atomic.Int64
}

// probes lets the timed reducer factory, which sees only the job spec's
// params, find the probe of the repetition that admitted the query.
var (
	probes    sync.Map // uint64 → *probe
	nextProbe atomic.Uint64
)

func newProbe() *probe {
	p := &probe{
		id:       nextProbe.Add(1),
		epoch:    time.Now(),
		retr:     make(map[string]*retrStat),
		submitAt: make(map[[2]int]time.Duration),
	}
	probes.Store(p.id, p)
	return p
}

// release unregisters the probe; reducers built after it fail.
func (p *probe) release() { probes.Delete(p.id) }

func (p *probe) now() time.Duration { return time.Since(p.epoch) }

// at converts a wall-clock instant to the probe's time base.
func (p *probe) at(t time.Time) time.Duration { return t.Sub(p.epoch) }

// Byte counters under the connections. All are nil on a nil probe, and
// count then returns the connection unwrapped.
func (p *probe) wire() *atomic.Int64 {
	if p == nil {
		return nil
	}
	return &p.wireBytes
}

func (p *probe) wanToCloud() *atomic.Int64 {
	if p == nil {
		return nil
	}
	return &p.toCloudBytes
}

func (p *probe) wanToLocal() *atomic.Int64 {
	if p == nil {
		return nil
	}
	return &p.toLocalBytes
}

// count wraps c so that every byte written through it adds to n.
func (p *probe) count(c net.Conn, n *atomic.Int64) net.Conn {
	if p == nil || n == nil {
		return c
	}
	return &countConn{Conn: c, n: n}
}

type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// ---------------------------------------------------------------------------
// Head client decorator.

// tracedClient times each call cluster c's agent makes to the head.
type tracedClient struct {
	p     *probe
	c     int
	inner cluster.QueryClient
	// specQuery is the query of the latest spec fetch: the agent builds a
	// query's sources right after fetching its spec, on the same goroutine,
	// so the source decorators are tagged with it.
	specQuery atomic.Int64
}

func (p *probe) client(c int, inner cluster.QueryClient) *tracedClient {
	return &tracedClient{p: p, c: c, inner: inner}
}

func (t *tracedClient) done(kind, query int, start time.Duration) {
	end := t.p.now()
	t.p.mu.Lock()
	t.p.rpc[kind].add(end - start)
	t.p.spans = append(t.p.spans, span{
		name: "rpc." + rpcNames[kind], layer: layerProtocol, pid: 1 + t.c,
		start: start, end: end, query: query,
	})
	t.p.mu.Unlock()
}

// RegisterSite implements cluster.QueryClient.
func (t *tracedClient) RegisterSite(hello protocol.Hello) (protocol.SiteSpec, error) {
	return t.inner.RegisterSite(hello)
}

// QuerySpec implements cluster.QueryClient. A timed query's params learn
// which cluster builds the reducer, so its spans land on that cluster.
func (t *tracedClient) QuerySpec(site, query int) (protocol.JobSpec, error) {
	start := t.p.now()
	spec, err := t.inner.QuerySpec(site, query)
	t.done(rpcSpec, query, start)
	if err == nil && spec.App == timedApp {
		spec.Params = withCluster(spec.Params, t.c)
	}
	t.specQuery.Store(int64(query))
	return spec, err
}

// Poll implements cluster.QueryClient.
func (t *tracedClient) Poll(req protocol.PollRequest) (protocol.PollReply, error) {
	start := t.p.now()
	rep, err := t.inner.Poll(req)
	t.done(rpcPoll, -1, start)
	if err == nil && len(rep.Queries) == 0 {
		t.p.mu.Lock()
		t.p.idlePolls++
		t.p.mu.Unlock()
	}
	return rep, err
}

// CompleteJobs implements cluster.QueryClient.
func (t *tracedClient) CompleteJobs(done protocol.JobsDone) ([]int, error) {
	start := t.p.now()
	dups, err := t.inner.CompleteJobs(done)
	t.done(rpcComplete, done.Query, start)
	return dups, err
}

// Heartbeat implements cluster.QueryClient.
func (t *tracedClient) Heartbeat(site int) error { return t.inner.Heartbeat(site) }

// Checkpoint implements cluster.QueryClient.
func (t *tracedClient) Checkpoint(cs protocol.CheckpointSave) error { return t.inner.Checkpoint(cs) }

// SubmitResult implements cluster.QueryClient. The call starts the
// cluster's sync time for the query, which ends when the query's Wait
// returns.
func (t *tracedClient) SubmitResult(res protocol.ReductionResult) error {
	start := t.p.now()
	t.p.mu.Lock()
	t.p.submitAt[[2]int{t.c, res.Query}] = start
	t.p.mu.Unlock()
	err := t.inner.SubmitResult(res)
	t.done(rpcSubmit, res.Query, start)
	return err
}

// sources decorates the cluster's chunk sources for the query whose spec
// was fetched last.
func (t *tracedClient) sources(srcs map[int]chunk.Source) map[int]chunk.Source {
	q := int(t.specQuery.Load())
	out := make(map[int]chunk.Source, len(srcs))
	for site, s := range srcs {
		key := clusterNames[t.c] + "." + sourceName(t.c, site)
		out[site] = &tracedSource{p: t.p, c: t.c, key: key, query: q, inner: s}
	}
	return out
}

// sourceName names the retrieval path from cluster c to site: its own
// storage, S3, or the local storage node.
func sourceName(c, site int) string {
	switch {
	case c == clLocal && site == siteLocal:
		return "own"
	case site == siteS3:
		return "s3"
	default:
		return "local"
	}
}

// retrievalPaths are the four cluster×source paths the deployment has.
var retrievalPaths = []string{"local.own", "local.s3", "cloud.s3", "cloud.local"}

// tracedSource times one cluster's reads from one site.
type tracedSource struct {
	p     *probe
	c     int
	key   string
	query int
	inner chunk.Source
}

// ReadChunk implements chunk.Source.
func (s *tracedSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	start := s.p.now()
	data, err := s.inner.ReadChunk(ref)
	end := s.p.now()
	s.p.mu.Lock()
	st := s.p.retr[s.key]
	if st == nil {
		st = &retrStat{}
		s.p.retr[s.key] = st
	}
	st.add(end - start)
	st.bytes += int64(len(data))
	s.p.spans = append(s.p.spans, span{
		name: "retrieve " + s.key, layer: layerRetrieval, pid: 1 + s.c,
		start: start, end: end, query: s.query,
	})
	s.p.mu.Unlock()
	return data, err
}

// ---------------------------------------------------------------------------
// Timed reducer: a core.Reducer registered under its own app name that
// wraps one of the shipped apps and keeps the GroupReducer fast path.

const timedApp = "livebench-timed"

// timedParams is the wire form of a timed query's params.
type timedParams struct {
	probe   uint64
	query   int32
	cluster int32 // -1 at the head
	app     string
	params  []byte
}

const timedHeader = 8 + 4 + 4 + 2

func (tp timedParams) encode() []byte {
	b := make([]byte, 0, timedHeader+len(tp.app)+len(tp.params))
	b = binary.LittleEndian.AppendUint64(b, tp.probe)
	b = binary.LittleEndian.AppendUint32(b, uint32(tp.query))
	b = binary.LittleEndian.AppendUint32(b, uint32(tp.cluster))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(tp.app)))
	b = append(b, tp.app...)
	return append(b, tp.params...)
}

func decodeTimedParams(b []byte) (timedParams, error) {
	if len(b) < timedHeader {
		return timedParams{}, errors.New("livebench: short timed params")
	}
	n := int(binary.LittleEndian.Uint16(b[16:]))
	if len(b) < timedHeader+n {
		return timedParams{}, errors.New("livebench: truncated timed params")
	}
	return timedParams{
		probe:   binary.LittleEndian.Uint64(b),
		query:   int32(binary.LittleEndian.Uint32(b[8:])),
		cluster: int32(binary.LittleEndian.Uint32(b[12:])),
		app:     string(b[timedHeader : timedHeader+n]),
		params:  b[timedHeader+n:],
	}, nil
}

// withCluster returns timed params b rewritten for cluster c. Malformed
// params pass through for the factory to reject.
func withCluster(b []byte, c int) []byte {
	if len(b) < timedHeader {
		return b
	}
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[12:], uint32(c))
	return out
}

func init() {
	core.Register(timedApp, func(params []byte) (core.Reducer, error) {
		tp, err := decodeTimedParams(params)
		if err != nil {
			return nil, err
		}
		v, ok := probes.Load(tp.probe)
		if !ok {
			return nil, fmt.Errorf("livebench: no probe %d", tp.probe)
		}
		inner, err := core.NewReducer(tp.app, tp.params)
		if err != nil {
			return nil, err
		}
		return v.(*probe).reducer(inner, int(tp.query), int(tp.cluster))
	})
}

// reducer wraps inner for query q, built at cluster c (-1: the head).
func (p *probe) reducer(inner core.Reducer, q, c int) (*timedReducer, error) {
	g, ok := inner.(core.GroupReducer)
	if !ok {
		return nil, fmt.Errorf("livebench: reducer %T has no group fast path", inner)
	}
	return &timedReducer{p: p, inner: g, query: q, pid: 1 + c}, nil
}

// timedReducer times folds, encodes and decodes of the reducer it wraps.
type timedReducer struct {
	p     *probe
	inner core.GroupReducer
	query int
	pid   int
}

// NewObject implements core.Reducer.
func (r *timedReducer) NewObject() core.Object { return r.inner.NewObject() }

// LocalReduce implements core.Reducer.
func (r *timedReducer) LocalReduce(obj core.Object, unit []byte) error {
	return r.LocalReduceGroup(obj, unit, len(unit))
}

// LocalReduceGroup implements core.GroupReducer.
func (r *timedReducer) LocalReduceGroup(obj core.Object, group []byte, unitSize int) error {
	start := r.p.now()
	err := r.inner.LocalReduceGroup(obj, group, unitSize)
	end := r.p.now()
	r.p.mu.Lock()
	r.p.fold.add(end - start)
	r.p.units += int64(len(group) / unitSize)
	r.p.spans = append(r.p.spans, span{
		name: "fold", layer: layerCore, pid: r.pid, start: start, end: end, query: r.query,
	})
	r.p.mu.Unlock()
	return err
}

// GlobalReduce implements core.Reducer.
func (r *timedReducer) GlobalReduce(dst, src core.Object) error {
	return r.inner.GlobalReduce(dst, src)
}

// Encode implements core.Reducer.
func (r *timedReducer) Encode(obj core.Object) ([]byte, error) {
	start := r.p.now()
	b, err := r.inner.Encode(obj)
	end := r.p.now()
	r.p.mu.Lock()
	r.p.encode.add(end - start)
	if r.pid > 0 {
		r.p.objBytes += int64(len(b))
		r.p.objN++
	}
	r.p.spans = append(r.p.spans, span{
		name: "encode", layer: layerCore, pid: r.pid, start: start, end: end, query: r.query,
	})
	r.p.mu.Unlock()
	return b, err
}

// Decode implements core.Reducer.
func (r *timedReducer) Decode(data []byte) (core.Object, error) {
	start := r.p.now()
	obj, err := r.inner.Decode(data)
	end := r.p.now()
	r.p.mu.Lock()
	r.p.decode.add(end - start)
	r.p.spans = append(r.p.spans, span{
		name: "decode", layer: layerCore, pid: r.pid, start: start, end: end, query: r.query,
	})
	r.p.mu.Unlock()
	return obj, err
}

var _ core.GroupReducer = (*timedReducer)(nil)

// ---------------------------------------------------------------------------
// Load-generator side: admission, query lifetimes and sync.

// admitted records one Admit call.
func (p *probe) admitted(q int, start time.Duration) {
	end := p.now()
	p.mu.Lock()
	p.admit.add(end - start)
	p.spans = append(p.spans, span{name: "admit", layer: layerHead, start: start, end: end, query: q})
	p.mu.Unlock()
}

// finished records query q's lifetime, from its Admit call to its Wait
// return at end, and closes each cluster's sync interval for it.
func (p *probe) finished(q int, start, end time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans = append(p.spans, span{
		name: fmt.Sprintf("query %d", q), layer: layerQuery, start: start, end: end, query: q,
	})
	for c := range clusterNames {
		at, ok := p.submitAt[[2]int{c, q}]
		if !ok {
			continue
		}
		p.sync[c] += end - at
		p.spans = append(p.spans, span{
			name: "sync", layer: layerSync, pid: 1 + c, start: at, end: end, query: q,
		})
	}
}

// ---------------------------------------------------------------------------
// Self time and trace export.

// selfTimes sums each layer's self time: a query span's duration minus the
// union of its children's intervals, and every other span's full duration
// (only query spans have children).
func (p *probe) selfTimes() map[string]time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]time.Duration)
	children := make(map[int][]span)
	for _, s := range p.spans {
		if s.layer != layerQuery {
			out[s.layer] += s.end - s.start
			if s.query >= 0 {
				children[s.query] = append(children[s.query], s)
			}
		}
	}
	for _, s := range p.spans {
		if s.layer == layerQuery {
			out[layerQuery] += s.end - s.start - covered(s, children[s.query])
		}
	}
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// traceEvent is one Chrome trace-event-format record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the spans as a Chrome/Perfetto JSON trace with the
// per-layer self times under otherData. Spans of one process and layer that
// overlap are spread over tracks so each track nests properly.
func (p *probe) writeTrace(path string) error {
	self := p.selfTimes()
	p.mu.Lock()
	spans := append([]span(nil), p.spans...)
	p.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	var events []traceEvent
	names := []string{"head+loadgen", "cluster local", "cluster cloud"}
	for pid, n := range names {
		events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": n}})
	}
	type trackKey struct {
		pid   int
		layer string
	}
	tracks := make(map[trackKey][]time.Duration) // per track: end of its last span
	base := map[string]int{layerQuery: 0, layerHead: 100, layerSync: 200, layerProtocol: 300, layerRetrieval: 400, layerCore: 500}
	for _, s := range spans {
		k := trackKey{s.pid, s.layer}
		ends := tracks[k]
		t := 0
		for t < len(ends) && ends[t] > s.start {
			t++
		}
		if t == len(ends) {
			ends = append(ends, 0)
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", PID: s.pid, TID: base[s.layer] + t,
				Args: map[string]any{"name": fmt.Sprintf("%s %d", s.layer, t)}})
		}
		ends[t] = s.end
		tracks[k] = ends
		events = append(events, traceEvent{
			Name: s.name, Cat: s.layer, Ph: "X", PID: s.pid, TID: base[s.layer] + t,
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"query": s.query},
		})
	}
	selfS := make(map[string]float64, len(self))
	for l, d := range self {
		selfS[l] = d.Seconds()
	}
	b, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"self_time_s": selfS},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
