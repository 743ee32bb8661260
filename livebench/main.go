// Command livebench is the repository's end-to-end benchmark: it runs the
// multi-query runtime as it ships — head.New + Admit, two cluster.RunAgent
// agents over loopback TCP, objstore servers standing in for S3 and the
// local storage node, netem shaping on every cross-site link — under one of
// four traffic mixes, checks every query's result against a single-threaded
// reference fold, and prints the metrics by name with their units.
//
//	livebench -workload knn-wan -seed 1 -seconds 16 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of untraced repetitions;
// with -trace 1 the per-layer metrics of traced repetitions (plus the
// untraced ones they are compared with). -workload all runs every workload
// both ways, for -seconds each. The last line of standard output is a JSON
// object with the keys correct, attempted, failed and metrics. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("livebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "knn-wan, kmeans-iter, multi-small, pagerank-sync, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs, query points and k-means centres")
	seconds := fs.Float64("seconds", 16, "how long to repeat the workload (per workload and mode with -workload all)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "directory for the traced run's Perfetto trace; empty writes none")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "livebench: -trace must be 0 or 1")
		return 2
	}
	names, modes := []string{*name}, []bool{*trace == 1}
	if *name == "all" {
		names, modes = workloadNames, []bool{false, true}
	}
	total := result{Correct: true}
	all := make(map[string]map[string]metricValue)
	for _, n := range names {
		b, err := newBench(n, *seed, fullSizes)
		if err != nil {
			fmt.Fprintln(stderr, "livebench:", err)
			return 2
		}
		all[n] = make(map[string]metricValue)
		for _, traced := range modes {
			res, err := measure(b, defaultLinks, *seconds, traced, *seed, *out, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "livebench: %s: %v\n", n, err)
				return 1
			}
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			total.Correct = total.Correct && res.Correct
			total.Metrics = res.Metrics
			for k, v := range res.Metrics {
				all[n][k] = v
			}
		}
	}
	var line []byte
	var err error
	if *name == "all" {
		line, err = json.Marshal(map[string]any{
			"correct": total.Correct, "attempted": total.Attempted, "failed": total.Failed, "metrics": all,
		})
	} else {
		line, err = json.Marshal(total)
	}
	if err != nil {
		fmt.Fprintln(stderr, "livebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs b for the given seconds and reports one mode's metrics:
// end-to-end from untraced repetitions, or per-layer from a run split
// evenly between untraced and traced repetitions.
func measure(b *bench, lk links, seconds float64, traced bool, seed uint64, out string, stdout, stderr io.Writer) (result, error) {
	if !traced {
		setups, err := sampleSetups(b, lk)
		if err != nil {
			return result{}, err
		}
		plain, err := repeat(b, lk, seconds, false, stderr)
		if err != nil {
			return result{}, err
		}
		return report(b.name, endToEndMetrics, endToEnd(measured(plain), setups), plain, stdout), nil
	}
	plain, err := repeat(b, lk, seconds/2, false, stderr)
	if err != nil {
		return result{}, err
	}
	tr, err := repeat(b, lk, seconds/2, true, stderr)
	if err != nil {
		return result{}, err
	}
	if err := traceOut(b, tr[len(tr)-1], seed, out, stdout); err != nil {
		return result{}, err
	}
	return report(b.name, layerMetrics, perLayer(measured(plain), measured(tr)), append(plain, tr...), stdout), nil
}

// setupSamples is how many set-ups an untraced run times before its
// repetitions. Set-up takes about a tenth of a second and varies by tens of
// percent, so setup_s is the median over these and the repetitions' own.
const setupSamples = 5

// sampleSetups deploys b's topology setupSamples times, tearing each down,
// and returns the set-up times.
func sampleSetups(b *bench, lk links) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < setupSamples; i++ {
		start := time.Now()
		d, err := deploy(b.ds, lk, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(start))
		if err := d.close(); err != nil {
			return nil, err
		}
		runtime.GC() // release the stores' copies of the data
	}
	return out, nil
}

// repeat runs repetitions of b until the seconds are used, at least one.
func repeat(b *bench, lk links, seconds float64, traced bool, stderr io.Writer) ([]*rep, error) {
	var reps []*rep
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < seconds {
		var p *probe
		if traced {
			p = newProbe()
		}
		r, err := runRep(b, lk, p, stderr)
		if p != nil {
			p.release()
		}
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		fmt.Fprintf(stderr, "%s: repetition %d traced=%v: setup %.3fs makespan %.3fs alloc %.1fMiB failed %d/%d\n",
			b.name, len(reps), traced, r.setup.Seconds(), r.makespan.Seconds(), float64(r.allocBytes)/mib, r.failed, r.queries)
		runtime.GC() // release this repetition's stores before the next deploys its own
	}
	return reps, nil
}

// measured drops the first repetition when later ones exist: it pays
// first-use costs (the delay line's segment free list, lazily built runtime
// and package state) that a long-running deployment would not. Its results
// still count toward attempted and failed.
func measured(reps []*rep) []*rep {
	if len(reps) > 1 {
		return reps[1:]
	}
	return reps
}

// report prints each metric as "workload name value unit" and returns the
// run's result.
func report(workload string, defs []metric, vals map[string]float64, reps []*rep, stdout io.Writer) result {
	res := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, r := range reps {
		res.Attempted += r.queries
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "%s: %d repetitions, %d queries, %d failed (failed_frac %g)\n",
		workload, len(reps), res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, m := range defs {
		v := vals[m.name]
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "%-14s %-34s %14.6g %s\n", workload, m.name, v, m.unit)
	}
	return res
}

// traceOut prints r's per-layer self times and writes its spans as a
// Perfetto trace under out, when out is set.
func traceOut(b *bench, r *rep, seed uint64, out string, stdout io.Writer) error {
	self := r.probe.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(stdout, "%-14s %-34s %14.6g s\n", b.name, "# self."+l, self[l].Seconds())
	}
	if out == "" {
		return nil
	}
	path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", b.name, seed))
	if err := r.probe.writeTrace(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: trace written to %s\n", b.name, path)
	return nil
}
