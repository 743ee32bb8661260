package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// queryTimeout bounds the wait for one round's queries; no workload comes
// near it.
const queryTimeout = 120 * time.Second

// rep is the outcome of one repetition: a fresh deployment running every
// round of the workload once.
type rep struct {
	setup     time.Duration // uploads, head.New, both agents registered
	makespan  time.Duration // first Admit to last Wait return
	latencies []time.Duration
	// Heap allocation over the measured phase (runtime.MemStats deltas).
	allocBytes, mallocs uint64

	queries, failed int
	breakdown       [2]stats.Breakdown // per cluster, summed over queries
	acct            [2]stats.JobAccounting
	globalReduce    time.Duration // head merge time, summed over queries
	probe           *probe        // nil when untraced
}

// jobs returns the jobs both clusters folded.
func (r *rep) jobs() int { return r.acct[clLocal].Total() + r.acct[clCloud].Total() }

// runRep deploys the topology, runs b's rounds through it and checks every
// result. A traced repetition wires p's decorators and timed reducers in. A
// query that fails or misses its reference is counted in failed and
// described on errw; an error means the deployment itself broke.
func runRep(b *bench, lk links, p *probe, errw io.Writer) (*rep, error) {
	var index bytes.Buffer
	if _, err := b.ds.ix.WriteTo(&index); err != nil {
		return nil, err
	}
	start := time.Now()
	d, err := deploy(b.ds, lk, p)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := &rep{setup: time.Since(start), probe: p}

	type done struct {
		obj   core.Object
		check func(core.Object) error
		err   error
	}
	var results []done
	// Start the measured phase from a collected heap with empty buffer
	// pools (the second collection drops what the first left in the pools'
	// victim caches). Otherwise whether a collection happened during set-up
	// decides whether the pools are warm, and alloc_mb turns bimodal.
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var prev []core.Object
	for round := 0; round < b.rounds; round++ {
		qs, err := b.next(round, prev)
		if err != nil {
			d.close()
			return nil, err
		}
		hs := make([]*head.Query, len(qs))
		starts := make([]time.Time, len(qs))
		for i, q := range qs {
			starts[i] = time.Now()
			if hs[i], err = admit(d.h, b.ds, index.Bytes(), q, p, r.queries); err != nil {
				d.close()
				return nil, err
			}
			r.queries++
		}
		prev = make([]core.Object, len(qs))
		deadline := time.Now().Add(queryTimeout)
		failedRound := false
		pending := make([]int, len(qs))
		for i := range pending {
			pending[i] = i
		}
		for len(pending) > 0 {
			var i int
			i, pending = waitAny(hs, pending, deadline)
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			obj, reports, gr, err := hs[i].Wait(ctx)
			cancel()
			end := time.Now()
			r.makespan = end.Sub(t0)
			r.latencies = append(r.latencies, end.Sub(starts[i]))
			if p != nil {
				p.finished(hs[i].ID(), p.at(starts[i]), p.at(end))
			}
			r.globalReduce += gr
			for _, cr := range reports {
				c := clLocal
				if cr.Site == siteS3 {
					c = clCloud
				}
				r.breakdown[c] = r.breakdown[c].Add(cr.Breakdown)
				r.acct[c].Local += cr.Jobs.Local
				r.acct[c].Stolen += cr.Jobs.Stolen
			}
			prev[i] = obj
			failedRound = failedRound || err != nil
			results = append(results, done{obj: obj, check: qs[i].check, err: err})
		}
		if failedRound {
			// Later rounds need this round's results: count them as
			// attempted and failed.
			skipped := len(qs) * (b.rounds - round - 1)
			r.queries += skipped
			r.failed += skipped
			break
		}
	}
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs

	for i, res := range results {
		err := res.err
		if err == nil {
			err = res.check(res.obj)
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(errw, "%s: query %d: %v\n", b.name, i, err)
		}
	}
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	return r, nil
}

// admit admits q into h. A traced query runs under the timed reducer; id is
// the ID the head will assign it (heads number queries from 0 in admission
// order).
func admit(h *head.Head, ds *dataset, index []byte, q query, p *probe, id int) (*head.Query, error) {
	pool, err := jobs.NewPool(ds.ix, ds.placement, jobs.Options{})
	if err != nil {
		return nil, err
	}
	spec := protocol.JobSpec{App: q.app, Params: q.params, UnitSize: ds.ix.UnitSize, Index: index}
	var reducer core.Reducer = q.reducer
	if p != nil {
		spec.App = timedApp
		spec.Params = timedParams{probe: p.id, query: int32(id), cluster: -1, app: q.app, params: q.params}.encode()
		if reducer, err = p.reducer(q.reducer, id, -1); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	hq, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: reducer, Spec: spec, Weight: q.weight, ExpectAll: true})
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.admitted(id, p.at(start))
		if hq.ID() != id {
			return nil, fmt.Errorf("head assigned query ID %d, expected %d", hq.ID(), id)
		}
	}
	return hq, nil
}

// waitAny blocks until one of the pending queries is done, or the deadline
// passes, and returns the index of a done query (any pending one after the
// deadline) and the queries still pending.
func waitAny(hs []*head.Query, pending []int, deadline time.Time) (int, []int) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer.C)}}
	for _, i := range pending {
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(hs[i].Done())})
	}
	j, _, _ := reflect.Select(cases)
	j = max(j-1, 0)
	i := pending[j]
	return i, append(pending[:j], pending[j+1:]...)
}
