package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/chunk"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// TestLiveObservability runs a two-cluster hybrid job in-process with one
// shared Obs attached to the head, the pool, and both agents, then checks
// that the metrics registry and the merged trace agree with the run's ground
// truth. This is the live (wall-clock) counterpart of the simulator trace
// tests.
func TestLiveObservability(t *testing.T) {
	ix, src, want := buildDataset(t, 8000, 1000, 100) // 8 files × 10 chunks
	placement := jobs.SplitByFraction(len(ix.Files), 0.25, 0, 1)

	o := obs.New(nil)
	o.Tracer.Enable()

	pool, err := jobs.NewPool(ix, placement, jobs.Options{Metrics: o.Registry})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "cluster-test-sum", UnitSize: 4, GroupBytes: 1 << 10}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	h, err := head.New(head.Config{ExpectClusters: 2, Logf: t.Logf, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec, ExpectAll: true})
	if err != nil {
		t.Fatal(err)
	}

	sources := map[int]chunk.Source{0: src, 1: src}
	obj, reports, err := (&singleQuery{Head: h, q: q}).run(
		AgentConfig{Site: 0, Name: "local", Cores: 2, Sources: sources, Obs: o},
		AgentConfig{Site: 1, Name: "cloud", Cores: 2, Sources: sources, Obs: o},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*sumObj).total; got != want {
		t.Errorf("final sum = %d, want %d", got, want)
	}

	// Metrics agree with the run's ground truth on every layer.
	reg := o.Registry
	nJobs := int64(ix.NumChunks())
	var local, stolen int64
	for _, r := range reports {
		local += int64(r.Jobs.Local)
		stolen += int64(r.Jobs.Stolen)
	}
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"cluster_jobs_local_total", reg.Counter("cluster_jobs_local_total").Value(), local},
		{"cluster_jobs_stolen_total", reg.Counter("cluster_jobs_stolen_total").Value(), stolen},
		{"pool_jobs_assigned_local_total", reg.Counter("pool_jobs_assigned_local_total").Value(), local},
		{"pool_jobs_assigned_stolen_total", reg.Counter("pool_jobs_assigned_stolen_total").Value(), stolen},
		{"head_jobs_granted_total", reg.Counter("head_jobs_granted_total").Value(), nJobs},
		{"head_results_total", reg.Counter("head_results_total").Value(), 2},
		{"pool_jobs_remaining", reg.Gauge("pool_jobs_remaining").Value(), 0},
		{"pool_jobs_outstanding", reg.Gauge("pool_jobs_outstanding").Value(), 0},
		{"cluster_retrievals_inflight", reg.Gauge("cluster_retrievals_inflight").Value(), 0},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	// One retrieval observation per job, under each source's label: a
	// cluster's own site reads as "local", the other as "site<N>".
	hists := int64(0)
	for _, lbl := range []string{"local", "site0", "site1"} {
		hists += reg.Histogram("cluster_retrieval_seconds", nil, "source", lbl).Count()
	}
	if hists != nJobs {
		t.Errorf("retrieval histogram observations = %d, want %d", hists, nJobs)
	}

	// Trace: the agents' per-job retrieval spans merged into the head's
	// trace, one merge span per cluster result, and the whole thing exports
	// as valid Chrome trace JSON.
	var retrSpans, mergeSpans, grants int
	for _, ev := range o.Tracer.Events() {
		if ev.Phase != 'X' {
			continue
		}
		switch {
		case ev.Cat == "retrieval":
			retrSpans++
		case ev.Cat == "sync" && ev.Name == "merge-robj":
			mergeSpans++
		case ev.Cat == "scheduling" && ev.Name == "request-jobs":
			grants++
		}
	}
	if retrSpans != int(nJobs) {
		t.Errorf("retrieval spans = %d, want %d", retrSpans, nJobs)
	}
	if mergeSpans != 2 {
		t.Errorf("merge spans = %d, want 2", mergeSpans)
	}
	if grants == 0 {
		t.Error("no request-jobs spans on the head track")
	}
	var buf bytes.Buffer
	if err := o.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("trace JSON missing traceEvents")
	}
}
