package main

import (
	"fmt"
	"runtime"
	"testing"

	"tcast/internal/core"
	"tcast/internal/experiment"
	"tcast/internal/fastsim"
	"tcast/internal/obs"
	"tcast/internal/rng"
	"tcast/internal/trace"
	"tcast/internal/trial"
)

// The telemetry-scale trio: one op is one fully observed 2tBins trial —
// sparse-ledger audited, span-traced at 1-in-scaleSampleRate poll
// sampling, and folded into a constant-memory sketch sink — at population
// N = 10^3, 10^5, 10^6 with the same threshold. The point of the trio is
// the B/op column: with the sketch toolkit in place the telemetry cost
// per trial is flat in N (the CI memgate holds it there), where dense
// ledgers and unsampled traces used to grow linearly.
const (
	scaleT          = 16
	scaleX          = 16
	scaleBatch      = 256
	scaleSampleRate = 32
)

// scaleWorkers bounds the trio's parallelism: each worker keeps O(N)
// substrate state (channel bitsets, shadow knowledge), so the pool is
// capped to keep the resident set small even at N=10^6.
func scaleWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 4 {
		w = 4
	}
	return w
}

// newScaleStates preallocates one trial state per worker. Unlike the
// sync.Pool of the n=128 benchmarks, the trio indexes its states by trial
// stripe: the O(N) buffers inside (channel bitsets, the auditor's shadow
// knowledge, the arena) must survive every iteration, and a pool may
// evict them under GC pressure mid-run, which would charge spurious O(N)
// reallocations to the measured loop.
func newScaleStates(workers int) []*trial.State {
	states := make([]*trial.State, workers)
	for i := range states {
		states[i] = new(trial.State)
	}
	return states
}

// runScaleTrials executes total telemetered trials at population n through
// the worker pool, batching the trace builder like the sweep driver so
// memory stays bounded at any total. RunTrials stripes trial i onto
// worker i mod len(states), so indexing the states by stripe is
// race-free. Shared by the benchmark bodies and the flat-in-N regression
// test.
func runScaleTrials(n, total int, states []*trial.State, sink *obs.SketchSink) error {
	cfg := fastsim.DefaultConfig()
	for done, seed := 0, uint64(1); done < total; seed++ {
		m := total - done
		if m > scaleBatch {
			m = scaleBatch
		}
		stack := &trial.Stack{Trace: trace.NewBuilder(), TraceSample: scaleSampleRate}
		_, err := experiment.RunTrials(m, len(states), rng.New(seed), func(i int, r *rng.Source) (float64, error) {
			st := states[i%len(states)]
			sess, err := stack.Run(st, st.Channel(n, scaleX, cfg, r), core.TwoTBins{}, r,
				trial.Trial{Index: i, N: n, T: scaleT, X: scaleX, Stream: 2, Audit: true})
			if err != nil {
				return 0, err
			}
			sink.OnEvent(obs.Event{
				Kind: obs.KindSessionVerdict, Session: "2tBins", Trial: i,
				Poll: -1, Polls: sess.Verdict.Polls, Slots: sess.Slots(),
				Correct: sess.Verdict.Correct(), CausalPoll: -1,
			})
			return float64(sess.Result.Queries), nil
		})
		if err != nil {
			return err
		}
		stack.Trace.Graft()
		done += m
	}
	return nil
}

// scaleBench is one entry of the trio.
func scaleBench(name string, n int) bench {
	return bench{
		name:     name,
		short:    true,
		perTrial: true,
		fn: func(b *testing.B) {
			states := newScaleStates(scaleWorkers())
			sink := obs.NewSketchSink(nil)
			// Prewarm a few trials per worker so every O(N) buffer (channel
			// bitsets, auditor slots, arena) is sized before the timed loop;
			// what remains per op is the flat telemetry cost.
			if err := runScaleTrials(n, 4*len(states), states, sink); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := runScaleTrials(n, b.N, states, sink); err != nil {
				b.Fatal(err)
			}
		},
		// Cost-model work of one trial: a single unsampled session.
		traced: costModel(trial.Stack{}, core.TwoTBins{}, n, scaleT, scaleX, 2, channel(n, scaleX, fastsim.DefaultConfig())),
	}
}

// scaleBenches returns the trio in sweep order.
func scaleBenches() []bench {
	return []bench{
		scaleBench("query-2tbins-scale-1e3", 1_000),
		scaleBench("query-2tbins-scale-1e5", 100_000),
		scaleBench("query-2tbins-scale-1e6", 1_000_000),
	}
}

// measureScaleBytes is the test hook behind the flat-in-N acceptance
// check: allocated bytes per telemetered trial at population n, measured
// after a short warmup has sized every worker's buffers.
func measureScaleBytes(n, iters int) (float64, error) {
	states := newScaleStates(2)
	sink := obs.NewSketchSink(nil)
	if err := runScaleTrials(n, 4*len(states), states, sink); err != nil {
		return 0, fmt.Errorf("warmup: %w", err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runScaleTrials(n, iters, states, sink); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(iters), nil
}
