package experiment

import (
	"fmt"
	"runtime"
	"time"

	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/rng"
	"tcast/internal/stats"
	"tcast/internal/trial"
)

// ext-scale is the sparse-core scaling study: 2tBins on fields from 10^2
// to 10^7 nodes at fixed x = t = 16, reporting wall-clock and allocator
// traffic per trial alongside the (deterministic) query count. Above
// idset.SparseCutover the session streams its rounds — one keyed-
// permutation bin at a time against a ranked candidate snapshot — so the
// curves are the direct evidence for EXPERIMENTS.md's "Scaling to 10^7
// nodes" section: bytes per trial must grow sublinearly in N once the
// streamed path engages (the tcastbench sparse gate pins the same
// property in CI).
//
// Unlike the figure experiments this one measures the harness itself, so
// two of its three series (µs/trial, KB/trial) are machine-dependent;
// only the queries series is reproducible bit for bit. Trials run
// serially — runtime.MemStats is process-global, so worker parallelism
// would corrupt the bytes measurement — and the per-point trial count is
// clamped by N (smaller fields run more trials) to keep the sweep's
// total node-work bounded regardless of Options.Runs.

// scaleSweepNs are the swept field sizes, one decade apart.
var scaleSweepNs = []int{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

const (
	scaleSweepX = 16 // positives per trial (x >= t: every decision is "yes")
	scaleSweepT = 16 // threshold
)

// scaleSweepTrials clamps the per-point trial count so the sweep costs
// O(runs) small-field sessions of work at every decade: a budget of
// runs*200 node-touches per point, at least one trial, never more than
// runs. Deterministic in (runs, n) — the queries series stays exact.
func scaleSweepTrials(runs, n int) int {
	trials := runs * 200 / n
	if trials > runs {
		trials = runs
	}
	if trials < 1 {
		trials = 1
	}
	return trials
}

func init() {
	register(Experiment{
		ID:    "ext-scale",
		Title: "Extension: scaling 2tBins from 10^2 to 10^7 nodes (x=t=16) — sparse-core cost curves",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			runs := o.runs(defaultRuns)
			tab := &stats.Table{
				Title:  "per-trial cost of one 2tBins session vs field size (x=t=16)",
				XLabel: "field size N", YLabel: "per-trial cost (see series)",
			}
			micros := &stats.Series{Name: "µs/trial"}
			kilos := &stats.Series{Name: "KB/trial"}
			queries := &stats.Series{Name: "queries"}
			cfg := fastsim.DefaultConfig()
			var bare trial.Stack
			var st trial.State
			var tr rng.Source
			var m0, m1 runtime.MemStats
			for _, n := range scaleSweepNs {
				trials := scaleSweepTrials(runs, n)
				point := root.Split(uint64(n))
				var qacc stats.Running
				runtime.GC()
				runtime.ReadMemStats(&m0)
				start := time.Now()
				for i := 0; i < trials; i++ {
					point.SplitInto(uint64(i), &tr)
					sess, err := bare.Run(&st, st.Channel(n, scaleSweepX, cfg, &tr), core.TwoTBins{}, &tr,
						trial.Trial{Index: i, N: n, T: scaleSweepT, X: scaleSweepX, Stream: 2})
					if err != nil {
						return nil, fmt.Errorf("experiment: ext-scale n=%d trial %d: %w", n, i, err)
					}
					if !sess.Result.Decision {
						return nil, fmt.Errorf("experiment: ext-scale n=%d trial %d: wrong decision", n, i)
					}
					qacc.Observe(float64(sess.Result.Queries))
				}
				elapsed := time.Since(start)
				runtime.ReadMemStats(&m1)
				micros.Append(stats.Point{
					X: float64(n), N: trials,
					Y: elapsed.Seconds() * 1e6 / float64(trials),
				})
				kilos.Append(stats.Point{
					X: float64(n), N: trials,
					Y: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(trials),
				})
				queries.Append(stats.Point{
					X: float64(n), Y: qacc.Mean(), Err: qacc.CI95(), N: qacc.N(),
				})
			}
			tab.Add(micros)
			tab.Add(kilos)
			tab.Add(queries)
			return tab, nil
		},
	})
}
