// Command perfbench is the repository's end-to-end benchmark. It drives
// the built tcastd daemon over loopback HTTP and the built tcastfigs
// batch sweep from outside, checks their outputs, and prints one JSON
// result line:
//
//	perfbench -bin .bench_build/bin -work .bench_build/work \
//	    --workload serve-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run gives the per-layer split. Normally
// started through run.sh, which builds the binaries first. See
// README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// They are the ones that hold still on a shared 2-vCPU machine: CPU time,
// cost-model counts, memory and set-up. Wall-clock latency and
// throughput move by up to 2x with the host's load there, so they are
// reported by the traced run, unbounded (loadgen.*).
var endToEnd = []metricDef{
	{"cpu_ms_per_query", "ms"},
	{"slots_per_query", "count"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer that is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	{"http.post_rtt_ms", "ms"},
	{"http.handler_us", "us"},
	{"http.transport_us", "us"},
	{"http.status_rtt_ms", "ms"},
	{"http.non2xx", "count"},
	{"serve.session_ms.p50", "ms"},
	{"serve.session_ms.p99", "ms"},
	{"serve.wait_ms.p50", "ms"},
	{"serve.wait_ms.p99", "ms"},
	{"serve.waited_slots_frac", "ratio"},
	{"serve.queued_max", "count"},
	{"serve.shed", "count"},
	{"serve.cores_used", "cores"},
	{"serve.wrong_frac", "ratio"},
	{"obs.publisher_ns_per_poll", "ns"},
	{"obs.events_per_query", "count"},
	{"obs.dropped", "count"},
	{"metrics.wrap_ns_per_poll", "ns"},
	{"audit.us_per_query", "us"},
	{"audit.violations", "count"},
	{"retry.us_per_query", "us"},
	{"retry.retry_frac", "ratio"},
	{"retry.exhausted_per_query", "count"},
	{"faults.ms_per_query", "ms"},
	{"faults.ns_per_poll", "ns"},
	{"faults.events_per_query", "count"},
	{"core.us_per_query", "us"},
	{"core.polls_per_query", "count"},
	{"core.rounds_per_query", "count"},
	{"fastsim.ns_per_poll", "ns"},
	{"experiment.trials", "count"},
	{"experiment.fig1_s", "s"},
	{"experiment.fig9_s", "s"},
	{"experiment.fig2_s", "s"},
	{"experiment.abl-variants_s", "s"},
	{"experiment.parallel_eff", "ratio"},
	{"runtime.alloc_kb_per_query", "kB"},
	{"runtime.gc_per_1k_queries", "count"},
	{"loadgen.p50_ms", "ms"},
	{"loadgen.p90_ms", "ms"},
	{"loadgen.qps", "1/s"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line JSON report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
}

// verdict records the run's correctness checks.
func (r *result) verdict(ck *checker) {
	r.Correct = ck.ok()
	r.failures = ck.failures
}

func (r *result) put(name string, v float64) { r.Metrics[name] = metric{Value: v} }

// finish stamps units on the metrics of defs and rejects names outside
// defs and values JSON cannot carry. A metric of defs the run left out
// is an error, unless absentIsZero: a layer a workload does not use
// reports 0.
func (r *result) finish(defs []metricDef, absentIsZero bool) error {
	known := map[string]string{}
	for _, d := range defs {
		known[d.name] = d.unit
		if _, ok := r.Metrics[d.name]; !ok {
			if !absentIsZero {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			r.Metrics[d.name] = metric{}
		}
	}
	for name, m := range r.Metrics {
		unit, ok := known[name]
		if !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		r.Metrics[name] = metric{Value: m.Value, Unit: unit}
	}
	return nil
}

// checker collects failed correctness checks.
type checker struct{ failures []string }

func (c *checker) expect(cond bool, format string, args ...any) {
	if !cond {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool { return len(c.failures) == 0 }

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	bin      string
	work     string
}

// workload runs one named workload, untraced or traced.
type workload struct {
	run, trace func(options) (*result, error)
}

var (
	serveSmall = serveWorkload{open: true, requests: func(seed uint64, d time.Duration) []request {
		return smallRequests(seed, smallRate, d)
	}}
	serveSparse = serveWorkload{history: closedHistory, requests: func(seed uint64, _ time.Duration) []request {
		return sparseRequests(seed)
	}}
	serveFaulted = serveWorkload{history: closedHistory, requests: func(seed uint64, _ time.Duration) []request {
		return faultedRequests(seed)
	}}
)

func serving(w serveWorkload) workload {
	return workload{
		run:   func(o options) (*result, error) { return runServe(w, o) },
		trace: func(o options) (*result, error) { return traceServe(w, o) },
	}
}

var workloads = map[string]workload{
	"serve-small":   serving(serveSmall),
	"serve-sparse":  serving(serveSparse),
	"serve-faulted": serving(serveFaulted),
	"sweep-figs":    {run: runFigs, trace: traceFigs},
}

func main() {
	var (
		name    = flag.String("workload", "", "serve-small | serve-sparse | serve-faulted | sweep-figs")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed sends the same requests")
		seconds = flag.Int("seconds", 10, "how long the run measures")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the built tcastd and tcastfigs")
		work    = flag.String("work", ".bench_build/work", "directory for the run's files")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-small|serve-sparse|serve-faulted|sweep-figs, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	// One P: the client is mostly waiting on its connections, and a
	// second P would compete with the daemon for the machine's cores.
	runtime.GOMAXPROCS(1)
	if err := os.RemoveAll(*work); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	workDir, err := filepath.Abs(*work)
	if err != nil {
		fatal(err)
	}
	o := options{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, work: workDir}
	run, defs := w.run, endToEnd
	if *traced == 1 {
		run, defs = w.trace, perLayer
	}
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	if err := res.finish(defs, *traced == 1); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
