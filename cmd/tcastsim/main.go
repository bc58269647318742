// Command tcastsim runs ad-hoc threshold-query simulations: pick a
// network size, ground truth and algorithm, and see the decision and cost.
//
// Usage:
//
//	tcastsim -n 128 -t 16 -x 20 -alg 2tbins -runs 1000
//	tcastsim -n 128 -t 16 -x 20 -alg probabns -model 2+
//	tcastsim -n 32  -t 8  -x 12 -alg csma
//
// Algorithms: 2tbins, exp, abns-t, abns-2t, probabns, oracle, csma, seq.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"

	"tcast/internal/audit"
	"tcast/internal/baseline"
	"tcast/internal/bitset"
	"tcast/internal/experiment"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/stats"
	"tcast/internal/trace"
	"tcast/internal/trial"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tcastsim:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, optionally dump trial 0, run the
// sweep and print its summary to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tcastsim", flag.ExitOnError)
	var (
		n       = fs.Int("n", 128, "participant nodes")
		t       = fs.Int("t", 16, "threshold")
		x       = fs.Int("x", 8, "ground-truth positive nodes")
		alg     = fs.String("alg", "2tbins", "algorithm: "+trial.Names+"|csma|seq")
		model   = fs.String("model", "1+", "collision model: 1+ | 2+")
		runs    = fs.Int("runs", 1000, "number of trials")
		workers = fs.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS); results are worker-count-independent")
		seed    = fs.Uint64("seed", 2011, "root random seed")
		miss    = fs.Float64("miss", 0, "per-reply miss probability (radio irregularity)")
		dump    = fs.Bool("dump", false, "print a poll-by-poll trace of the sweep's trial 0 before the sweep")
		doAudit = fs.Bool("audit", false, "grade every session against ground truth and print the audit summary (tcast algorithms only)")

		faultsSpec = fs.String("faults", "", "fault-injection spec, e.g. burst=8,frac=0.2,churn=0.01,skew=0.01 (csma honors the burst process via its drop hook)")
		retries    = fs.Int("retries", 0, "initiator retry budget per silent poll (tcast algorithms)")
		backoff    = fs.Int("backoff", 0, "idle slots before each retry")

		traceOut    = fs.String("trace", "", "write a structured span trace (JSONL, virtual time) of the whole sweep to this file")
		traceSample = fs.Int("trace-sample", 1, "record 1-in-k poll leaf spans per session (k<=1 records all); virtual clock and session counters stay exact")
		metricsOut  = fs.String("metrics", "", "dump per-poll metrics to this file after the sweep ('-' = stdout, .prom = Prometheus format)")
		pprofDir    = fs.String("pprof", "", "write cpu/heap/goroutine/mutex/block profiles for the sweep into this directory")
	)
	var obsCfg obs.Config
	obsCfg.RegisterFlags(fs)
	fs.Parse(args)
	if *x < 0 || *x > *n {
		return fmt.Errorf("x=%d outside [0,%d]", *x, *n)
	}

	var reg *metrics.Registry
	if *metricsOut != "" || obsCfg.Enabled() {
		reg = metrics.New()
	}
	plane, err := obsCfg.Build(stderr, reg, false)
	if err != nil {
		return err
	}
	if *pprofDir != "" {
		stop, err := metrics.StartProfiles(*pprofDir)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "tcastsim: pprof:", err)
			}
		}()
	}

	cfg := fastsim.DefaultConfig()
	if *model == "2+" {
		cfg = fastsim.TwoPlusConfig()
	} else if *model != "1+" {
		return fmt.Errorf("unknown model %q", *model)
	}
	cfg.MissProb = *miss

	stack := &trial.Stack{
		Retry:       query.RetryPolicy{MaxRetries: *retries, Backoff: *backoff},
		Metrics:     reg,
		TraceSample: *traceSample,
		Obs:         plane.Bus(),
	}
	fcfg, err := faults.ParseSpec(*faultsSpec)
	if err != nil {
		return err
	}
	if fcfg.Active() {
		stack.Faults = &fcfg
	}
	if *doAudit {
		stack.Audit = &audit.Collector{}
	}
	if *traceOut != "" {
		stack.Trace = trace.NewBuilder()
		stack.Trace.SetMeta(
			trace.StringAttr("cmd", "tcastsim"),
			trace.StringAttr("alg", *alg),
			trace.IntAttr("n", *n), trace.IntAttr("t", *t), trace.IntAttr("x", *x),
			trace.StringAttr("model", *model),
			trace.Int64Attr("seed", int64(*seed)),
			trace.IntAttr("runs", *runs),
		)
	}
	trialFn, name, err := buildTrial(*alg, *n, *t, *x, cfg, stack)
	if err != nil {
		return err
	}
	if *dump {
		if err := printTrace(stdout, *alg, *n, *t, *x, cfg, stack, *seed); err != nil {
			return err
		}
	}
	if b := stack.Trace; b != nil {
		sp := b.Begin(trace.KindExperiment, "tcastsim")
		sp.SetAttr(trace.StringAttr("alg", name))
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	// Trials fan out over the pool; each records into its own trace fork
	// and audit slot keyed by trial index, so the outputs below are
	// bit-identical for any worker count.
	values, err := experiment.RunTrials(*runs, w, rng.New(*seed), trialFn)
	if err != nil {
		return err
	}
	if col := stack.Audit; col != nil {
		col.Flush()
	}
	if b := stack.Trace; b != nil {
		b.Graft()
		if err := trace.WriteFile(*traceOut, b.Trace()); err != nil {
			return err
		}
	}
	var acc stats.Running
	for _, v := range values {
		acc.Observe(v)
	}
	fmt.Fprintf(stdout, "%s  n=%d t=%d x=%d model=%s runs=%d\n", name, *n, *t, *x, *model, *runs)
	fmt.Fprintf(stdout, "ground truth: x >= t is %v\n", *x >= *t)
	fmt.Fprintf(stdout, "mean cost: %.2f queries/slots (95%% CI ±%.2f, min %.0f, max %.0f)\n",
		acc.Mean(), acc.CI95(), acc.Min(), acc.Max())
	qs := stats.Quantiles(values, 0.5, 0.9, 0.99)
	fmt.Fprintf(stdout, "quantiles: p50=%.0f p90=%.0f p99=%.0f\n", qs[0], qs[1], qs[2])
	if col := stack.Audit; col != nil {
		fmt.Fprint(stdout, col.Summary())
	}
	if *metricsOut != "" {
		if err := metrics.DumpToPath(reg, *metricsOut); err != nil {
			return err
		}
	}
	if s := plane.Summary(); s != "" {
		fmt.Fprint(stderr, s)
	}
	return plane.Close()
}

// buildTrial returns the per-trial cost function for the selected scheme
// and its display name. The tcast algorithms run through the trial stack,
// labeled "<name>/trial=<i>". The CSMA/sequential baselines have no group
// polls to instrument, audit or fault: CSMA honors an active burst
// process through its drop hook, and a traced baseline trial is one span
// of its slot count.
func buildTrial(alg string, n, t, x int, cfg fastsim.Config, stack *trial.Stack) (func(i int, r *rng.Source) (float64, error), string, error) {
	if alg == "csma" || alg == "seq" {
		if stack.Audit != nil {
			return nil, "", fmt.Errorf("-audit grades group-poll sessions; %s has none", alg)
		}
		scheme, name := "sequential", "Sequential"
		run := func(n, t int, pos *bitset.Set, r *rng.Source) baseline.Result {
			return baseline.Sequential{}.Run(n, t, pos, r)
		}
		if alg == "csma" {
			scheme, name = "csma", "CSMA"
			run = func(n, t int, pos *bitset.Set, r *rng.Source) baseline.Result {
				c := baseline.CSMA{}
				if f := stack.Faults; f != nil && f.Burst.Active() {
					link := faults.NewLink(f.Burst, r.Split(trial.FaultStream))
					c.Drop = func(int) bool { return link.Lost() }
				}
				return c.Run(n, t, pos, r)
			}
		}
		return baselineTrial(scheme, n, t, x, stack, run), name, nil
	}
	a, err := trial.Algorithm(alg)
	if err != nil {
		return nil, "", err
	}
	return func(i int, r *rng.Source) (float64, error) {
		st := trial.Get()
		defer trial.Put(st)
		sess, err := stack.Run(st, st.Channel(n, x, cfg, r), a, r, trial.Trial{
			Index: i, Label: fmt.Sprintf("%s/trial=%d", a.Name(), i),
			N: n, T: t, X: x, Stream: 2,
		})
		if err != nil {
			return 0, err
		}
		return float64(sess.Result.Queries), nil
	}, a.Name(), nil
}

// baselineTrial wraps one abstract baseline as a trial: positives from
// Split(1), the scheme's own draws from Split(2), its decision on the bus
// and its slot count as one trace span.
func baselineTrial(scheme string, n, t, x int, stack *trial.Stack, run func(n, t int, pos *bitset.Set, r *rng.Source) baseline.Result) func(i int, r *rng.Source) (float64, error) {
	return func(i int, r *rng.Source) (float64, error) {
		pos := bitset.New(n)
		for _, id := range r.Split(1).Sample(n, x) {
			pos.Add(id)
		}
		label := fmt.Sprintf("%s/trial=%d", scheme, i)
		obs.PublishSessionStart(stack.Obs, label, i)
		res := run(n, t, pos, r.Split(2))
		obs.PublishDecision(stack.Obs, label, i, res.Decision, x >= t, 0, int64(res.Slots))
		if b := stack.Trace; b != nil {
			f := b.Fork(i)
			sp := f.Begin(trace.KindTrial, "trial "+strconv.Itoa(i))
			f.Advance(int64(res.Slots))
			sp.SetAttr(
				trace.StringAttr("substrate", "baseline"),
				trace.StringAttr("scheme", scheme),
				trace.IntAttr("slots", res.Slots),
				trace.IntAttr("delivered", res.Delivered),
				trace.IntAttr("collisions", res.Collisions),
				trace.BoolAttr("decision", res.Decision),
			)
			f.End()
		}
		return float64(res.Slots), nil
	}
}

// printTrace renders the sweep's trial 0 poll by poll: the same stream
// derivation, fault injector and retry policy, with a tap carrying a
// trace.Recorder outermost, so the dumped polls are exactly the ones the
// sweep's first trial costs. Baselines have no group polls to trace.
func printTrace(w io.Writer, alg string, n, t, x int, cfg fastsim.Config, stack *trial.Stack, seed uint64) error {
	a, err := trial.Algorithm(alg)
	if err != nil {
		return fmt.Errorf("-dump supports the tcast algorithms, not %q", alg)
	}
	var r rng.Source
	rng.New(seed).SplitInto(0, &r)
	var st trial.State
	dump := &trial.Stack{Faults: stack.Faults, Retry: stack.Retry}
	sess, err := dump.Open(&st, st.Channel(n, x, cfg, &r), a, &r, trial.Trial{N: n, T: t, X: x, Stream: 2})
	if err != nil {
		return err
	}
	rec := trace.NewRecorder()
	sess.Q = query.NewTap(sess.Q, rec)
	res, err := sess.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "--- trace of trial 0, one %s session (decision=%v, %d polls) ---\n", a.Name(), res.Decision, rec.Len())
	fmt.Fprint(w, rec.Render())
	fmt.Fprintln(w, "---")
	return nil
}
