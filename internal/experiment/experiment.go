// Package experiment is the harness that regenerates every table and
// figure of the paper's evaluation. Each figure is a named experiment that
// sweeps a parameter, runs many independent trials per point (in parallel,
// deterministically), and returns a stats.Table whose series correspond to
// the curves of the original figure.
package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tcast/internal/audit"
	"tcast/internal/core"
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

// Options tunes an experiment run.
type Options struct {
	// Runs is the number of trials per point. The paper uses 1000 for
	// simulations and 100 per mote configuration; zero selects those
	// defaults.
	Runs int
	// Seed is the root seed; every (point, trial) derives its own
	// stream, so results are independent of scheduling.
	Seed uint64
	// Workers bounds trial parallelism; zero means GOMAXPROCS.
	Workers int
	// The remaining fields configure the layers of every trial's querier
	// stack; trial.Stack documents each. Metrics additionally receives the
	// sweep driver's per-point timings and trial throughput. Trace and
	// Audit are batched per sweep point: trials record into forks and
	// rows keyed by their index, and the sweep grafts and flushes them in
	// index order once the point's pool drains, so traces and audit dumps
	// are identical at any worker count. With Faults active the figure
	// experiments tolerate wrong decisions instead of failing the trial,
	// and the abstract CSMA/Sequential baselines, which have no querier
	// to wrap, run bare. No layer consumes trial randomness, so computed
	// tables are bit-identical with and without them.
	Metrics     *metrics.Registry
	Trace       *trace.Builder
	TraceSample int
	Audit       *audit.Collector
	Faults      *faults.Config
	Retry       query.RetryPolicy
	Obs         *obs.Bus
}

// faulted reports whether fault injection is configured AND can fire.
func (o Options) faulted() bool { return o.Faults != nil && o.Faults.Active() }

// stack is the trial stack the options configure.
func (o Options) stack() *trial.Stack {
	return &trial.Stack{
		Faults: o.Faults, Retry: o.Retry, Metrics: o.Metrics, Audit: o.Audit,
		Trace: o.Trace, TraceSample: o.TraceSample, Obs: o.Obs,
	}
}

func (o Options) runs(def int) int {
	if o.Runs > 0 {
		return o.Runs
	}
	return def
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunTrials evaluates trial runs times on independent derived streams,
// fanned out over the worker pool, returning the per-trial values in
// trial-index order. Trial i always receives its own index and the stream
// root.Split(i), so the output is bit-identical regardless of worker
// count; the index also keys each trial's observation context (trace
// forks, audit rows), which is how traced and audited sweeps stay
// deterministic at full parallelism.
//
// On failure RunTrials returns (nil, err): any partially computed values
// are discarded, never exposed. The first recorded failure cancels the
// remaining work — every worker stops before starting a trial whose index
// exceeds the lowest failing index seen so far — and the error returned is
// deterministically the one from the lowest-indexed failing trial. (All
// trials below the lowest failure still run, so the winner cannot depend
// on goroutine scheduling.)
func RunTrials(runs, workers int, root *rng.Source, trial func(i int, r *rng.Source) (float64, error)) ([]float64, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("experiment: runs must be positive, got %d", runs)
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > runs {
		workers = runs
	}
	values := make([]float64, runs)
	var (
		failIdx atomic.Int64 // lowest failing trial index so far
		mu      sync.Mutex   // guards failErr together with failIdx writes
		failErr error
	)
	failIdx.Store(int64(runs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker reuses one derived stream: SplitInto reseeds it
			// per trial with the same state Split(i) would allocate, and
			// Split never advances the parent, so concurrent derivation
			// from the shared root is safe and the values stay
			// bit-identical to the allocating form.
			var src rng.Source
			for i := w; i < runs; i += workers {
				// A worker's indices only grow, so once one passes the
				// lowest failure it can stop: no later trial of this
				// worker can produce a lower-indexed error.
				if int64(i) > failIdx.Load() {
					return
				}
				root.SplitInto(uint64(i), &src)
				v, err := trial(i, &src)
				if err != nil {
					mu.Lock()
					if int64(i) < failIdx.Load() {
						failIdx.Store(int64(i))
						failErr = err
					}
					mu.Unlock()
					return
				}
				values[i] = v
			}
		}(w)
	}
	wg.Wait()
	if failErr != nil {
		return nil, failErr
	}
	return values, nil
}

// MeanParallel runs RunTrials and folds the values (in index order, so
// floating-point accumulation is deterministic) into a stats.Running.
func MeanParallel(runs, workers int, root *rng.Source, trial func(i int, r *rng.Source) (float64, error)) (stats.Running, error) {
	values, err := RunTrials(runs, workers, root, trial)
	if err != nil {
		return stats.Running{}, err
	}
	var total stats.Running
	for _, v := range values {
		total.Observe(v)
	}
	return total, nil
}

// pointCost is the per-trial measurement for one sweep point; i is the
// trial index, which keys the trial's observation context.
type pointCost func(i int, r *rng.Source) (float64, error)

// sweep builds one series by evaluating cost at every x. When o.Metrics is
// set, each point additionally reports its wall-clock duration and trial
// throughput — the timings are observability only and never feed back into
// the table. When o.Trace is set, the series and every sweep point become
// spans (the per-trial spans underneath come from the cost functions).
func sweep(name string, xs []int, o Options, root *rng.Source, cost func(x int) pointCost) (*stats.Series, error) {
	runs, workers := o.runs(defaultRuns), o.workers()
	s := &stats.Series{Name: name}
	if b := o.Trace; b != nil {
		b.Begin(trace.KindSeries, name)
		defer b.End()
	}
	for _, x := range xs {
		if b := o.Trace; b != nil {
			sp := b.Begin(trace.KindPoint, "x="+strconv.Itoa(x))
			sp.SetAttr(trace.IntAttr("x", x), trace.IntAttr("runs", runs))
		}
		start := time.Now()
		acc, err := MeanParallel(runs, workers, root.Split(uint64(x)), cost(x))
		if b := o.Trace; b != nil {
			// Splice the per-trial forks under the point span in trial-index
			// order; a failed point drops its fragments instead (the surviving
			// subset is scheduling-dependent). Close the point span before the
			// error check so the builder's stack stays balanced on every
			// return path.
			if err == nil {
				b.Graft()
			} else {
				b.DropForks()
			}
			b.End()
		}
		if c := o.Audit; c != nil {
			// Same batching for the collector's order-sensitive rows.
			if err == nil {
				c.Flush()
			} else {
				c.Discard()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("experiment: series %s at x=%d: %w", name, x, err)
		}
		if m := o.Metrics; m != nil {
			elapsed := time.Since(start)
			m.Counter("experiment_points_total").Inc()
			m.Counter("experiment_trials_total").Add(int64(acc.N()))
			m.Histogram("experiment_point_seconds", metrics.TimeBuckets).Observe(elapsed.Seconds())
			if secs := elapsed.Seconds(); secs > 0 {
				m.Gauge("experiment_trials_per_second").Set(float64(acc.N()) / secs)
			}
		}
		s.Append(stats.Point{X: float64(x), Y: acc.Mean(), Err: acc.CI95(), N: acc.N()})
	}
	return s, nil
}

// tcastCost measures one tcast session's query count on a fresh channel
// with exactly x positives, through the trial stack the options
// configure.
func tcastCost(alg core.Algorithm, n, t, x int, cfg fastsim.Config, o Options) pointCost {
	stack := o.stack()
	return func(i int, r *rng.Source) (float64, error) {
		st := trial.Get()
		defer trial.Put(st)
		tr := trial.Trial{Index: i, N: n, T: t, X: x, Stream: 2}
		if o.Audit != nil || o.Obs != nil {
			tr.Label = fmt.Sprintf("%s/n=%d/t=%d/x=%d/trial=%d", alg.Name(), n, t, x, i)
		}
		sess, err := stack.Run(st, st.Channel(n, x, cfg, r), alg, r, tr)
		if err != nil {
			return 0, err
		}
		if sess.Result.Decision != (x >= t) && !o.faulted() {
			// A wrong decision on a well-behaved substrate is a harness
			// bug; under active fault injection it is the expected
			// degradation the audit layer attributes.
			return 0, fmt.Errorf("wrong decision for n=%d t=%d x=%d", n, t, x)
		}
		return float64(sess.Result.Queries), nil
	}
}

// Experiment is one reproducible figure or table.
type Experiment struct {
	// ID is the figure identifier from DESIGN.md (e.g. "fig1").
	ID string
	// Title describes the experiment.
	Title string
	// Run produces the figure's data.
	Run func(o Options) (*stats.Table, error)
}

// registry holds every experiment keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiment: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs lists all registered experiments in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	var out []Experiment
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}
