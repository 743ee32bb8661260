package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/head"
	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Sites and cluster indices of the two-cluster hybrid deployment. Site 0 is
// the local cluster's storage node, site 1 the cloud object store (S3).
const (
	siteLocal = 0
	siteS3    = 1

	clLocal = 0
	clCloud = 1
)

var clusterNames = [2]string{"local", "cloud"}

// link is one emulated network path: a one-way latency and a bandwidth cap
// shared by every connection on the path, per direction.
type link struct {
	latency time.Duration
	rate    float64 // bytes per second
}

// links are the emulated network paths between the two sites.
type links struct {
	wan      link // local site ↔ cloud region
	cloudLAN link // cloud cluster ↔ S3, inside the region
}

// defaultLinks is the deployment every workload runs on.
var defaultLinks = links{
	wan:      link{latency: 20 * time.Millisecond, rate: 8 << 20},
	cloudLAN: link{latency: 2 * time.Millisecond, rate: 32 << 20},
}

// shaper returns the netem shaper for one direction of l.
func (l link) shaper() *netem.Shaper {
	return netem.NewShaper(netem.Link{BytesPerSec: l.rate})
}

// lag adds l's latency to both directions of c.
func (l link) lag(c net.Conn) net.Conn {
	if l.latency <= 0 {
		return c
	}
	return newLagConn(c, l.latency)
}

// registerTimeout bounds the wait for both agents to register; they take
// milliseconds.
const registerTimeout = 30 * time.Second

// Cluster shape: one fold core and two retrieval threads per cluster.
const (
	foldCores        = 1
	retrievalThreads = 2
)

// dataset is a generated input split across the two sites.
type dataset struct {
	ix        *chunk.Index
	data      [][]byte         // file contents, by file index
	placement []int            // file → site
	local     *chunk.MemSource // the local site's files, as its cluster reads them
}

// newDataset materializes ix with gen and places file i at placement[i].
func newDataset(ix *chunk.Index, gen workload.Generator, placement []int) (*dataset, error) {
	ds := &dataset{ix: ix, placement: placement, local: chunk.NewMemSource(ix)}
	all := chunk.NewMemSource(ix)
	if err := workload.Build(ix, gen, all); err != nil {
		return nil, err
	}
	for fi, f := range ix.Files {
		data, err := all.ReadChunk(chunk.Ref{File: fi, Size: f.Size})
		if err != nil {
			return nil, err
		}
		ds.data = append(ds.data, data)
		if placement[fi] == siteLocal {
			if err := ds.local.WriteFile(f.Name, data); err != nil {
				return nil, err
			}
		}
	}
	return ds, nil
}

// deployment is one live hybrid topology: an objstore.Server standing in
// for S3, a second one for the local storage node, a multi-query head and
// two cluster agents, each joined to the head over its own TCP connection.
// Every cross-site connection carries its link's latency and netem's
// bandwidth shaping. A non-nil probe wraps the connections, head clients and
// chunk sources with its recorders.
type deployment struct {
	h      *head.Head
	probe  *probe
	s3     *objstore.Server
	store  *objstore.Server
	s3L    *portListener
	storeL *portListener
	conns  []net.Conn
	cls    []*objstore.Client

	agents   sync.WaitGroup
	sessions sync.WaitGroup
	errMu    sync.Mutex
	err      error
}

// deploy uploads ds, starts the head and both agents, and returns once both
// agents are registered. Its duration is the benchmark's set-up time.
func deploy(ds *dataset, lk links, p *probe) (_ *deployment, err error) {
	d := &deployment{probe: p}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	wanToCloud := lk.wan.shaper() // local site → cloud region
	wanToLocal := lk.wan.shaper() // cloud region → local site
	lan := lk.cloudLAN.shaper()
	// served returns the wrapper for a server's accepted connections on
	// link l: the latency both ways, and the server's replies paced by s
	// and counted in n.
	served := func(l link, s *netem.Shaper, n *atomic.Int64) func(net.Conn) net.Conn {
		return func(c net.Conn) net.Conn { return s.Wrap(p.count(l.lag(c), n)) }
	}
	plain := func(c net.Conn) net.Conn { return c }

	// S3 has three ports: ingest (uploads, unshaped), the cloud-local link,
	// and the WAN path the local cluster reads it over. The storage node
	// has an ingest port and the WAN port the cloud cluster reads it over.
	d.s3 = objstore.NewServer(objstore.NewMemBackend())
	d.s3.Logf = func(string, ...any) {}
	if d.s3L, err = listenPorts(plain, served(lk.cloudLAN, lan, nil), served(lk.wan, wanToLocal, p.wanToLocal())); err != nil {
		return nil, err
	}
	d.store = objstore.NewServer(objstore.NewMemBackend())
	d.store.Logf = func(string, ...any) {}
	if d.storeL, err = listenPorts(plain, served(lk.wan, wanToCloud, p.wanToCloud())); err != nil {
		return nil, err
	}
	d.sessions.Add(2)
	go func() { defer d.sessions.Done(); _ = d.s3.Serve(d.s3L) }()
	go func() { defer d.sessions.Done(); _ = d.store.Serve(d.storeL) }()

	if err := d.upload(ds); err != nil {
		return nil, err
	}

	if d.h, err = head.New(head.Config{ExpectClusters: 2}); err != nil {
		return nil, err
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer hl.Close()
	for c := clLocal; c <= clCloud; c++ {
		// The agent's end and the head's end of one TCP connection, dialed
		// and accepted here so the cloud's session can be shaped.
		agentEnd, headEnd, err := dialPair(hl)
		if err != nil {
			return nil, err
		}
		agentEnd, headEnd = p.count(agentEnd, p.wire()), p.count(headEnd, p.wire())
		if c == clCloud {
			// The cloud's session crosses the WAN: a round trip of latency,
			// and each direction paced by its own shaper.
			agentEnd = wanToLocal.Wrap(p.count(lk.wan.lag(agentEnd), p.wanToLocal()))
			headEnd = wanToCloud.Wrap(p.count(headEnd, p.wanToCloud()))
		}
		d.conns = append(d.conns, agentEnd, headEnd)
		d.sessions.Add(1)
		go func() { defer d.sessions.Done(); d.h.HandleConn(transport.New(headEnd)) }()
		cfg := d.agentConfig(c, ds, cluster.NewRemoteAgent(transport.New(agentEnd)))
		d.agents.Add(1)
		go func() {
			defer d.agents.Done()
			// The agent returns when close shuts the head down.
			if err := cluster.RunAgent(context.Background(), cfg); err != nil {
				d.fail(err)
			}
		}()
	}
	for deadline := time.Now().Add(registerTimeout); len(d.h.Sites()) < 2; {
		if err := d.failure(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("agents not registered after %v", registerTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return d, nil
}

// upload puts every file of ds into the store of the site that hosts it,
// through the stores' unshaped ingest ports.
func (d *deployment) upload(ds *dataset) error {
	clients := map[int]*objstore.Client{
		siteLocal: d.client(d.storeL.addr(0), 1),
		siteS3:    d.client(d.s3L.addr(0), 1),
	}
	for fi, f := range ds.ix.Files {
		if err := clients[ds.placement[fi]].Put(f.Name, ds.data[fi]); err != nil {
			return fmt.Errorf("uploading %s: %w", f.Name, err)
		}
	}
	return nil
}

// client returns an object-store client that close releases.
func (d *deployment) client(addr string, conns int) *objstore.Client {
	c := objstore.Dial("tcp", addr, conns)
	d.cls = append(d.cls, c)
	return c
}

// agentConfig wires cluster c's agent: the local cluster reads its own site
// from memory and S3 over the WAN; the cloud cluster reads S3 over the
// cloud-local link and the local storage node over the WAN.
func (d *deployment) agentConfig(c int, ds *dataset, rc *cluster.RemoteAgent) cluster.AgentConfig {
	var srcs map[int]chunk.Source
	remote := func(addr string) chunk.Source {
		return &objstore.Source{Client: d.client(addr, retrievalThreads), Index: ds.ix, Threads: 1}
	}
	if c == clLocal {
		srcs = map[int]chunk.Source{siteLocal: ds.local, siteS3: remote(d.s3L.addr(2))}
	} else {
		srcs = map[int]chunk.Source{siteS3: remote(d.s3L.addr(1)), siteLocal: remote(d.storeL.addr(1))}
	}
	cfg := cluster.AgentConfig{
		Site:             []int{siteLocal, siteS3}[c],
		Name:             clusterNames[c],
		Cores:            foldCores,
		RetrievalThreads: retrievalThreads,
		Sources:          srcs,
		Head:             rc,
	}
	if d.probe != nil {
		tc := d.probe.client(c, rc)
		cfg.Head = tc
		cfg.Sources = nil
		cfg.SourceBuilder = func(*chunk.Index) (map[int]chunk.Source, error) {
			return tc.sources(srcs), nil
		}
	}
	return cfg
}

func (d *deployment) fail(err error) {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	if d.err == nil {
		d.err = err
	}
}

// failure returns the first agent error, if any.
func (d *deployment) failure() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// close shuts the head down, joins the agents and every session, and
// releases the stores. It returns the first agent error.
func (d *deployment) close() error {
	if d.h != nil {
		d.h.Shutdown() // agents see it on their next poll and return
	}
	d.agents.Wait()
	for _, c := range d.conns {
		_ = c.Close()
	}
	for _, c := range d.cls {
		c.Close()
	}
	if d.s3L != nil {
		_ = d.s3.Close()
		_ = d.s3L.Close()
	}
	if d.storeL != nil {
		_ = d.store.Close()
		_ = d.storeL.Close()
	}
	d.sessions.Wait()
	return d.failure()
}

// dialPair opens one loopback TCP connection through l and returns both
// ends.
func dialPair(l net.Listener) (dialed, accepted net.Conn, err error) {
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	dialed, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		_ = l.Close() // unblocks the Accept
		<-ch
		return nil, nil, err
	}
	r := <-ch
	if r.err != nil {
		dialed.Close()
		return nil, nil, r.err
	}
	return dialed, r.c, nil
}

// portListener is one net.Listener over several loopback ports, each with
// its own wrapper for accepted connections, so a single server can sit
// behind several differently shaped network paths.
type portListener struct {
	ls     []net.Listener
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

func listenPorts(wraps ...func(net.Conn) net.Conn) (*portListener, error) {
	pl := &portListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	for _, wrap := range wraps {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			pl.Close()
			return nil, err
		}
		pl.ls = append(pl.ls, l)
		pl.wg.Add(1)
		go func() {
			defer pl.wg.Done()
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				select {
				case pl.conns <- wrap(c):
				case <-pl.closed:
					c.Close()
					return
				}
			}
		}()
	}
	return pl, nil
}

// addr returns the address of port i.
func (pl *portListener) addr(i int) string { return pl.ls[i].Addr().String() }

// Accept implements net.Listener.
func (pl *portListener) Accept() (net.Conn, error) {
	select {
	case c := <-pl.conns:
		return c, nil
	case <-pl.closed:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener; it returns once every port is closed.
func (pl *portListener) Close() error {
	pl.once.Do(func() {
		close(pl.closed)
		for _, l := range pl.ls {
			_ = l.Close()
		}
	})
	pl.wg.Wait()
	return nil
}

// Addr implements net.Listener.
func (pl *portListener) Addr() net.Addr { return pl.ls[0].Addr() }
