// Command tcastfigs regenerates the paper's tables and figures.
//
// Usage:
//
//	tcastfigs -fig all                  # every experiment, paper-scale runs
//	tcastfigs -fig fig1 -runs 200       # one figure, quicker
//	tcastfigs -fig fig9 -csv            # emit CSV instead of a text table
//	tcastfigs -fig all -out results/    # write one file per experiment
//
// Experiment IDs match DESIGN.md's per-experiment index (fig1..fig11,
// tab-err, abl-capture, abl-variants).
//
// Observability:
//
//	tcastfigs -fig fig1 -metrics -            # dump metrics to stdout after the run
//	tcastfigs -fig all -metrics m.prom        # Prometheus text format (by extension)
//	tcastfigs -fig all -metrics-addr :9090    # scrapeable /metrics endpoint during the run
//	tcastfigs -fig all -pprof profiles/       # CPU/heap/goroutine/mutex/block profiles
//	tcastfigs -fig all -audit                 # grade every session against ground truth
//
// Live observability plane (see EXPERIMENTS.md):
//
//	tcastfigs -fig fig1 -log                          # stream events to stderr
//	tcastfigs -fig all -log-json -log-level debug     # per-poll JSON event stream
//	tcastfigs -fig tab-acc -audit -flight dumps/      # flight-recorder dumps on anomaly
//	tcastfigs -fig all -slo maxpolls=96,minacc=0.99   # SLO health rules
//	tcastfigs -fig all -metrics-addr :9090            # + /healthz /slo /events (SSE)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tcast/internal/experiment"
	"tcast/internal/faults"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/stats"
	"tcast/internal/trace"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "experiment ID or 'all'")
		runs    = flag.Int("runs", 0, "trials per point (0 = paper defaults: 1000 sim, 100 mote)")
		workers = flag.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS); results are worker-count-independent")
		seed    = flag.Uint64("seed", 2011, "root random seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut = flag.Bool("json", false, "emit JSON instead of aligned text")
		plot    = flag.Bool("plot", false, "append an ASCII chart after each table")
		ci      = flag.Bool("ci", false, "include 95% confidence-interval columns in text output")
		out     = flag.String("out", "", "directory to write per-experiment files into (stdout if empty)")
		list    = flag.Bool("list", false, "list experiment IDs and exit")

		faultsSpec  = flag.String("faults", "", "fault-injection spec stacked above every trial's substrate, e.g. burst=8,frac=0.2,churn=0.01 (figures tolerate the resulting wrong decisions)")
		retries     = flag.Int("retries", 0, "initiator retry budget per silent poll")
		backoff     = flag.Int("backoff", 0, "idle slots before each retry")
		traceSample = flag.Int("trace-sample", 1, "record 1-in-k poll leaf spans per session (k<=1 records all); virtual clock and session counters stay exact")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz, /slo and /events (SSE) on this address during the run")
	)
	var rc obs.RunConfig
	rc.RegisterFlags(flag.CommandLine, "run")
	flag.Parse()

	if *list {
		for _, e := range experiment.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	var exps []experiment.Experiment
	if *fig == "all" {
		exps = experiment.All()
	} else {
		for _, id := range strings.Split(*fig, ",") {
			e, err := experiment.Get(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			exps = append(exps, e)
		}
	}

	rc.Addr = *metricsAddr
	run, err := rc.Open("tcastfigs", os.Stdout, os.Stderr,
		trace.StringAttr("fig", *fig),
		trace.IntAttr("runs", *runs),
		trace.Int64Attr("seed", int64(*seed)),
	)
	if err != nil {
		fatal(err)
	}

	opts := experiment.Options{
		Runs: *runs, Seed: *seed, Workers: *workers,
		Metrics: run.Registry, Trace: run.Trace, TraceSample: *traceSample,
		Audit: run.Audit, Obs: run.Plane.Bus(),
		Retry: query.RetryPolicy{MaxRetries: *retries, Backoff: *backoff},
	}
	if *faultsSpec != "" {
		fcfg, err := faults.ParseSpec(*faultsSpec)
		if err != nil {
			fatal(err)
		}
		opts.Faults = &fcfg
	}
	for _, e := range exps {
		start := time.Now()
		if run.Trace != nil {
			sp := run.Trace.Begin(trace.KindExperiment, e.ID)
			sp.SetAttr(trace.StringAttr("title", e.Title))
		}
		var tab *stats.Table
		// Label the experiment's CPU samples (phase=<id>) so profiles
		// attribute time per experiment via -tag_focus.
		obs.WithPhase(e.ID, func() { tab, err = e.Run(opts) })
		if run.Trace != nil {
			run.Trace.End()
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		var body string
		switch {
		case *jsonOut:
			body, err = experiment.JSON(tab)
			if err != nil {
				fatal(err)
			}
		case *csv:
			body = experiment.CSV(tab)
		case *ci:
			body = experiment.RenderCI(tab)
		default:
			body = experiment.Render(tab)
		}
		if *plot && !*jsonOut {
			body += "\n" + experiment.Plot(tab, 72, 20)
		}
		header := fmt.Sprintf("== %s: %s (%.1fs) ==\n", e.ID, e.Title, time.Since(start).Seconds())
		if *out == "" {
			fmt.Print(header, body, "\n")
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		ext := ".txt"
		if *csv {
			ext = ".csv"
		}
		if *jsonOut {
			ext = ".json"
		}
		path := filepath.Join(*out, e.ID+ext)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			fatal(err)
		}
		fmt.Print(header, "wrote ", path, "\n")
	}
	if err := run.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcastfigs:", err)
	os.Exit(1)
}
