package main

import (
	"sort"
	"time"
)

// metric describes one reported metric. The same table is what
// BENCHMARK.json lists; the tests keep the two in step.
type metric struct {
	name, unit, better string
}

// endToEndMetrics come from untraced repetitions (-trace 0).
var endToEndMetrics = []metric{
	{"makespan_s", "s", "lower"},  // first Admit to last Wait return
	{"query_p50_s", "s", "lower"}, // median admit-to-result latency
	{"setup_s", "s", "lower"},     // uploads, head.New, both agents registered
	{"alloc_mb", "MiB", "lower"},  // heap allocated in the measured phase
}

// layerMetrics come from traced repetitions (-trace 1), except alloc.*,
// taken from the untraced repetitions of the same run so that the spans'
// own allocations stay out of them, and trace.overhead_frac, which compares
// the two.
var layerMetrics = func() []metric {
	var ms []metric
	for _, k := range rpcNames {
		ms = append(ms, metric{"rpc." + k + ".count", "count", "lower"})
	}
	for _, k := range rpcNames {
		ms = append(ms, metric{"rpc." + k + ".mean_ms", "ms", "lower"})
	}
	ms = append(ms,
		metric{"rpc.per_job", "1/job", "lower"},
		metric{"rpc.idle_poll_frac", "frac", "lower"},
		metric{"wire.bytes_per_job", "B/job", "lower"},
		metric{"head.admit_ms", "ms", "lower"},
		metric{"head.global_reduce_ms", "ms", "lower"},
		metric{"jobs.stolen_frac", "frac", "lower"},
		metric{"jobs.local.count", "count", "higher"},
		metric{"jobs.cloud.count", "count", "lower"},
	)
	for _, path := range retrievalPaths {
		ms = append(ms, metric{"retrieval." + path + ".count", "count", "lower"})
		// No workload makes the cloud read the local storage node (the local
		// cluster always finishes its own data first), so that path's busy
		// time would read 0 on every run; its count and MiB still show it.
		if path != "cloud.local" {
			ms = append(ms, metric{"retrieval." + path + ".busy_s", "s", "lower"})
		}
		ms = append(ms, metric{"retrieval." + path + ".mb", "MiB", "lower"})
	}
	ms = append(ms,
		metric{"netem.wan_mb", "MiB", "lower"},
		metric{"netem.egress_mb", "MiB", "lower"},
	)
	for _, c := range clusterNames {
		ms = append(ms,
			metric{"cluster." + c + ".processing_s", "s", "lower"},
			metric{"cluster." + c + ".retrieval_s", "s", "lower"},
			metric{"cluster." + c + ".sync_s", "s", "lower"},
		)
	}
	return append(ms,
		metric{"core.fold_s", "s", "lower"},
		metric{"core.ns_per_unit", "ns", "lower"},
		metric{"core.encode_ms", "ms", "lower"},
		metric{"core.decode_ms", "ms", "lower"},
		metric{"core.object_bytes", "B", "lower"},
		metric{"alloc.mallocs_per_job", "1/job", "lower"},
		metric{"alloc.bytes_per_job", "B/job", "lower"},
		metric{"trace.overhead_frac", "frac", "lower"},
	)
}()

const mib = 1 << 20

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd reduces untraced repetitions to the end-to-end metrics: medians
// over the repetitions, over every query of every repetition for the
// latency, and over the repetitions' and the extra set-ups for setup_s.
func endToEnd(reps []*rep, setups []time.Duration) map[string]float64 {
	var makespan, setup, alloc, lat []float64
	for _, d := range setups {
		setup = append(setup, d.Seconds())
	}
	for _, r := range reps {
		makespan = append(makespan, r.makespan.Seconds())
		setup = append(setup, r.setup.Seconds())
		alloc = append(alloc, float64(r.allocBytes)/mib)
		for _, l := range r.latencies {
			lat = append(lat, l.Seconds())
		}
	}
	return map[string]float64{
		"makespan_s":  median(makespan),
		"query_p50_s": median(lat),
		"setup_s":     median(setup),
		"alloc_mb":    median(alloc),
	}
}

// perLayer reduces a run's untraced and traced repetitions to the per-layer
// metrics: each traced repetition's values, then their medians.
func perLayer(plain, traced []*rep) map[string]float64 {
	vals := make(map[string][]float64)
	for _, r := range traced {
		for k, v := range repLayers(r) {
			vals[k] = append(vals[k], v)
		}
	}
	var mallocs, bytes, plainSpan, tracedSpan []float64
	for _, r := range plain {
		mallocs = append(mallocs, ratio(float64(r.mallocs), float64(r.jobs())))
		bytes = append(bytes, ratio(float64(r.allocBytes), float64(r.jobs())))
		plainSpan = append(plainSpan, r.makespan.Seconds())
	}
	for _, r := range traced {
		tracedSpan = append(tracedSpan, r.makespan.Seconds())
	}
	out := make(map[string]float64, len(vals)+3)
	for k, v := range vals {
		out[k] = median(v)
	}
	out["alloc.mallocs_per_job"] = median(mallocs)
	out["alloc.bytes_per_job"] = median(bytes)
	out["trace.overhead_frac"] = ratio(median(tracedSpan), median(plainSpan)) - 1
	return out
}

// repLayers computes one traced repetition's per-layer values. Counts and
// busy times are totals over the repetition; means are per call or query.
func repLayers(r *rep) map[string]float64 {
	p := r.probe
	p.mu.Lock()
	defer p.mu.Unlock()
	m := make(map[string]float64)
	jobs := float64(r.jobs())
	queries := float64(r.queries)

	var calls int64
	for k, name := range rpcNames {
		t := p.rpc[k]
		calls += t.n
		m["rpc."+name+".count"] = float64(t.n)
		m["rpc."+name+".mean_ms"] = ratio(ms(t.total), float64(t.n))
	}
	m["rpc.per_job"] = ratio(float64(calls), jobs)
	m["rpc.idle_poll_frac"] = ratio(float64(p.idlePolls), float64(p.rpc[rpcPoll].n))
	m["wire.bytes_per_job"] = ratio(float64(p.wireBytes.Load()), jobs)

	m["head.admit_ms"] = ratio(ms(p.admit.total), float64(p.admit.n))
	m["head.global_reduce_ms"] = ratio(ms(r.globalReduce), queries)

	stolen := r.acct[clLocal].Stolen + r.acct[clCloud].Stolen
	m["jobs.stolen_frac"] = ratio(float64(stolen), jobs)
	m["jobs.local.count"] = float64(r.acct[clLocal].Total())
	m["jobs.cloud.count"] = float64(r.acct[clCloud].Total())

	for _, path := range retrievalPaths {
		st := p.retr[path]
		if st == nil {
			st = &retrStat{}
		}
		m["retrieval."+path+".count"] = float64(st.n)
		m["retrieval."+path+".busy_s"] = st.total.Seconds()
		m["retrieval."+path+".mb"] = float64(st.bytes) / mib
	}
	m["netem.wan_mb"] = float64(p.toCloudBytes.Load()+p.toLocalBytes.Load()) / mib
	m["netem.egress_mb"] = float64(p.toLocalBytes.Load()) / mib

	for c, name := range clusterNames {
		m["cluster."+name+".processing_s"] = r.breakdown[c].Processing.Seconds()
		m["cluster."+name+".retrieval_s"] = r.breakdown[c].Retrieval.Seconds()
		m["cluster."+name+".sync_s"] = p.sync[c].Seconds()
	}

	m["core.fold_s"] = p.fold.total.Seconds()
	m["core.ns_per_unit"] = ratio(float64(p.fold.total), float64(p.units))
	m["core.encode_ms"] = ratio(ms(p.encode.total), queries)
	m["core.decode_ms"] = ratio(ms(p.decode.total), queries)
	m["core.object_bytes"] = ratio(float64(p.objBytes), float64(p.objN))
	return m
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
