package experiment

import (
	"fmt"
	"sort"
	"strconv"

	"tcast/internal/baseline"
	"tcast/internal/bitset"
	"tcast/internal/core"
	"tcast/internal/dist"
	"tcast/internal/fastsim"
	"tcast/internal/motelab"
	"tcast/internal/rng"
	"tcast/internal/stats"
	"tcast/internal/trace"
)

// Default parameters for the simulation figures. The paper omits N and t
// for Figures 1-3, 5 and 6; we use N=128, t=16, matching the Section VI
// worked example's n=128 (see DESIGN.md).
const (
	defaultN    = 128
	defaultT    = 16
	defaultRuns = 1000
)

// xSweep returns the positive-count sweep for a population of n with
// threshold t: dense around the hard region x ≈ t, sparser toward x = n.
func xSweep(n, t int) []int {
	seen := map[int]bool{}
	var xs []int
	add := func(v int) {
		if v >= 0 && v <= n && !seen[v] {
			seen[v] = true
			xs = append(xs, v)
		}
	}
	for v := 0; v <= 2*t; v += max(1, t/8) {
		add(v)
	}
	add(1)
	add(t - 1)
	add(t)
	add(t + 1)
	for v := 2 * t; v <= n; v += max(1, n/16) {
		add(v)
	}
	add(n)
	sort.Ints(xs)
	return xs
}

// baselineTrialSpan renders one abstract-baseline trial as a leaf trial
// span, advancing the virtual clock by the slots the baseline consumed —
// the same cost unit the tcast sessions are metered in.
func baselineTrialSpan(b *trace.Builder, scheme string, trial, n, t, x int, res baseline.Result) {
	sp := b.Begin(trace.KindTrial, "trial "+strconv.Itoa(trial))
	b.Advance(int64(res.Slots))
	sp.SetAttr(
		trace.StringAttr("substrate", "baseline"),
		trace.StringAttr("scheme", scheme),
		trace.IntAttr("n", n), trace.IntAttr("t", t), trace.IntAttr("x", x),
		trace.IntAttr("slots", res.Slots),
		trace.IntAttr("delivered", res.Delivered),
		trace.IntAttr("collisions", res.Collisions),
		trace.BoolAttr("decision", res.Decision),
	)
	b.End()
}

// csmaCost measures the CSMA baseline's slot count.
func csmaCost(n, t, x int, o Options) pointCost {
	return func(trial int, r *rng.Source) (float64, error) {
		pos := bitset.New(n)
		for _, id := range r.Split(1).Sample(n, x) {
			pos.Add(id)
		}
		res := baseline.CSMA{}.Run(n, t, pos, r.Split(2))
		if b := o.Trace; b != nil {
			baselineTrialSpan(b.Fork(trial), "csma", trial, n, t, x, res)
		}
		if res.Decision != (x >= t) {
			return 0, fmt.Errorf("csma: wrong decision for x=%d t=%d", x, t)
		}
		return float64(res.Slots), nil
	}
}

// sequentialCost measures the sequential-ordering baseline's slot count.
func sequentialCost(n, t, x int, o Options) pointCost {
	return func(trial int, r *rng.Source) (float64, error) {
		pos := bitset.New(n)
		for _, id := range r.Split(1).Sample(n, x) {
			pos.Add(id)
		}
		res := baseline.Sequential{}.Run(n, t, pos, r.Split(2))
		if b := o.Trace; b != nil {
			baselineTrialSpan(b.Fork(trial), "sequential", trial, n, t, x, res)
		}
		if res.Decision != (x >= t) {
			return 0, fmt.Errorf("sequential: wrong decision for x=%d t=%d", x, t)
		}
		return float64(res.Slots), nil
	}
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Fig 1: performance of tcast in the 1+ scenario (N=128, t=16)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			xs := xSweep(defaultN, defaultT)
			tab := &stats.Table{
				Title:  "tcast vs traditional schemes, 1+ model",
				XLabel: "positive nodes x", YLabel: "queries / slots",
			}
			curves := []struct {
				name string
				cost func(x int) pointCost
			}{
				{"2tBins", func(x int) pointCost {
					return tcastCost(core.TwoTBins{}, defaultN, defaultT, x, fastsim.DefaultConfig(), o)
				}},
				{"ExpIncrease", func(x int) pointCost {
					return tcastCost(core.ExpIncrease{}, defaultN, defaultT, x, fastsim.DefaultConfig(), o)
				}},
				{"CSMA", func(x int) pointCost { return csmaCost(defaultN, defaultT, x, o) }},
				{"Sequential", func(x int) pointCost { return sequentialCost(defaultN, defaultT, x, o) }},
			}
			for i, c := range curves {
				s, err := sweep(c.name, xs, o, root.Split(uint64(i)), c.cost)
				if err != nil {
					return nil, err
				}
				tab.Add(s)
			}
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "fig2",
		Title: "Fig 2: performance of tcast in the 2+ scenario vs 1+ (N=128, t=16)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			xs := xSweep(defaultN, defaultT)
			tab := &stats.Table{
				Title:  "1+ vs 2+ collision models",
				XLabel: "positive nodes x", YLabel: "queries",
			}
			curves := []struct {
				name string
				alg  core.Algorithm
				cfg  fastsim.Config
			}{
				{"2tBins 1+", core.TwoTBins{}, fastsim.DefaultConfig()},
				{"2tBins 2+", core.TwoTBins{}, fastsim.TwoPlusConfig()},
				{"ExpIncrease 1+", core.ExpIncrease{}, fastsim.DefaultConfig()},
				{"ExpIncrease 2+", core.ExpIncrease{}, fastsim.TwoPlusConfig()},
			}
			for i, c := range curves {
				c := c
				s, err := sweep(c.name, xs, o, root.Split(uint64(i)), func(x int) pointCost {
					return tcastCost(c.alg, defaultN, defaultT, x, c.cfg, o)
				})
				if err != nil {
					return nil, err
				}
				tab.Add(s)
			}
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "fig3",
		Title: "Fig 3: performance of tcast as the threshold changes (x=4, N=128)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			const x = 4
			ts := []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64, 96, 112, 120, 124, 127}
			tab := &stats.Table{
				Title:  "query cost vs threshold, x fixed at 4",
				XLabel: "threshold t", YLabel: "queries",
			}
			curves := []struct {
				name string
				alg  core.Algorithm
				cfg  fastsim.Config
			}{
				{"2tBins 1+", core.TwoTBins{}, fastsim.DefaultConfig()},
				{"2tBins 2+", core.TwoTBins{}, fastsim.TwoPlusConfig()},
				{"ExpIncrease 1+", core.ExpIncrease{}, fastsim.DefaultConfig()},
				{"ExpIncrease 2+", core.ExpIncrease{}, fastsim.TwoPlusConfig()},
			}
			for i, c := range curves {
				c := c
				s, err := sweep(c.name, ts, o, root.Split(uint64(i)), func(t int) pointCost {
					return tcastCost(c.alg, defaultN, t, x, c.cfg, o)
				})
				if err != nil {
					return nil, err
				}
				tab.Add(s)
			}
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "fig4",
		Title: "Fig 4: TCast with 2tBins on the emulated mote testbed (N=12, t in {2,4,6})",
		Run: func(o Options) (*stats.Table, error) {
			cfg := motelab.DefaultConfig()
			cfg.Seed = o.Seed + 1
			cfg.Trace = o.Trace
			cfg.Audit = o.Audit
			lab, err := motelab.New(cfg)
			if err != nil {
				return nil, err
			}
			defer lab.Close()
			curves, agg, err := lab.RunPaperProtocol(o.runs(100))
			if err != nil {
				return nil, err
			}
			tab := &stats.Table{
				Title: fmt.Sprintf("mote testbed: %d runs, %d false pos, %d false neg (error rate %.2f%%)",
					agg.Trials, agg.FalsePositives, agg.FalseNegatives, 100*agg.ErrorRate()),
				XLabel: "positive nodes x", YLabel: "queries",
			}
			for _, th := range []int{2, 4, 6} {
				s := &stats.Series{Name: fmt.Sprintf("t=%d", th)}
				for x := 0; x <= cfg.Participants; x++ {
					s.Append(stats.Point{X: float64(x), Y: curves[th][x], N: o.runs(100)})
				}
				tab.Add(s)
			}
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "tab-err",
		Title: "Sec IV-D: testbed error statistics by HACK superposition count",
		Run: func(o Options) (*stats.Table, error) {
			cfg := motelab.DefaultConfig()
			cfg.Seed = o.Seed + 1
			cfg.Trace = o.Trace
			cfg.Audit = o.Audit
			lab, err := motelab.New(cfg)
			if err != nil {
				return nil, err
			}
			defer lab.Close()
			_, agg, err := lab.RunPaperProtocol(o.runs(100))
			if err != nil {
				return nil, err
			}
			tab := &stats.Table{
				Title: fmt.Sprintf("errors over %d runs: %d false pos, %d false neg (%.2f%%)",
					agg.Trials, agg.FalsePositives, agg.FalseNegatives, 100*agg.ErrorRate()),
				XLabel: "superposing HACKs k", YLabel: "count / rate",
			}
			queries := &stats.Series{Name: "k-positive group queries"}
			misses := &stats.Series{Name: "missed (heard silent)"}
			rate := &stats.Series{Name: "miss rate"}
			for k := 1; k <= 6; k++ {
				queries.Append(stats.Point{X: float64(k), Y: float64(agg.QueriesBySuperposition[k])})
				misses.Append(stats.Point{X: float64(k), Y: float64(agg.MissedBySuperposition[k])})
				rate.Append(stats.Point{X: float64(k), Y: agg.MissRate(k)})
			}
			tab.Add(queries)
			tab.Add(misses)
			tab.Add(rate)
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "fig5",
		Title: "Fig 5: Adaptive Bin Number Selection (N=128, t=16)",
		Run:   abnsFigure(false),
	})

	register(Experiment{
		ID:    "fig6",
		Title: "Fig 6: probabilistic ABNS (N=128, t=16)",
		Run:   abnsFigure(true),
	})

	register(Experiment{
		ID:    "fig7",
		Title: "Fig 7: probabilistic ABNS vs CSMA (N=32, t=8)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			const n, t = 32, 8
			xs := xSweep(n, t)
			tab := &stats.Table{
				Title:  "ProbABNS vs CSMA, N=32, t=8",
				XLabel: "positive nodes x", YLabel: "queries / slots",
			}
			prob, err := sweep("ProbABNS", xs, o, root.Split(1), func(x int) pointCost {
				return tcastCost(core.ProbABNS{}, n, t, x, fastsim.DefaultConfig(), o)
			})
			if err != nil {
				return nil, err
			}
			tab.Add(prob)
			csma, err := sweep("CSMA", xs, o, root.Split(2), func(x int) pointCost {
				return csmaCost(n, t, x, o)
			})
			if err != nil {
				return nil, err
			}
			tab.Add(csma)
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "fig8",
		Title: "Fig 8: hypothesis gap Δ as the modes separate (n=128, r=12)",
		Run: func(o Options) (*stats.Table, error) {
			const n, r = 128, 12
			tab := &stats.Table{
				Title:  "expected non-empty probe counts under the two hypotheses",
				XLabel: "mode separation d", YLabel: "probes (of 12)",
			}
			m1s := &stats.Series{Name: "m1 (quiet)"}
			m2s := &stats.Series{Name: "m2 (activity)"}
			ds := &stats.Series{Name: "delta"}
			for d := 4; d <= 60; d += 4 {
				bi := dist.SymmetricBimodal(n, float64(d), 0)
				tl, tr := bi.Boundaries()
				det := core.NewBimodalDetector(tl, tr, r)
				m1, m2, delta := det.DeltaGap()
				m1s.Append(stats.Point{X: float64(d), Y: m1})
				m2s.Append(stats.Point{X: float64(d), Y: m2})
				ds.Append(stats.Point{X: float64(d), Y: delta})
			}
			tab.Add(m1s)
			tab.Add(m2s)
			tab.Add(ds)
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "fig9",
		Title: "Fig 9: accuracy of the probabilistic model vs repeats (n=128)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			const n = 128
			tab := &stats.Table{
				Title:  "probabilistic detector accuracy as the modes separate",
				XLabel: "mode separation d", YLabel: "accuracy",
			}
			ds := []int{4, 8, 12, 16, 20, 24, 32, 40, 48, 56}
			repeats := []struct {
				name string
				r    func(tl, tr float64) int
			}{
				{"r=1", func(_, _ float64) int { return 1 }},
				{"r=3", func(_, _ float64) int { return 3 }},
				{"r=9", func(_, _ float64) int { return 9 }},
				{"r=f(d=5%)", func(tl, tr float64) int {
					b := core.OptimalSamplingBins(tl, tr)
					eps := (core.BinNonEmptyProb(b, tr) - core.BinNonEmptyProb(b, tl)) / 2
					return core.RequiredRepeatsPaper(0.05, eps)
				}},
			}
			for i, rc := range repeats {
				rc := rc
				s, err := sweep(rc.name, ds, o, root.Split(uint64(i)), func(d int) pointCost {
					return detectorAccuracyCost(n, float64(d), rc.r)
				})
				if err != nil {
					return nil, err
				}
				tab.Add(s)
			}
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "fig10",
		Title: "Fig 10: estimated repeats for a 95% success rate",
		Run: func(o Options) (*stats.Table, error) {
			const n = 128
			tab := &stats.Table{
				Title:  "required repeats r by eq (10) and by Hoeffding, delta = 5%",
				XLabel: "mode separation d", YLabel: "repeats",
			}
			paper := &stats.Series{Name: "eq (10)"}
			hoeff := &stats.Series{Name: "Hoeffding"}
			for d := 4; d <= 60; d += 4 {
				bi := dist.SymmetricBimodal(n, float64(d), 0)
				tl, tr := bi.Boundaries()
				b := core.OptimalSamplingBins(tl, tr)
				eps := (core.BinNonEmptyProb(b, tr) - core.BinNonEmptyProb(b, tl)) / 2
				paper.Append(stats.Point{X: float64(d), Y: float64(core.RequiredRepeatsPaper(0.05, eps))})
				hoeff.Append(stats.Point{X: float64(d), Y: float64(core.RequiredRepeatsHoeffding(0.05, eps))})
			}
			tab.Add(paper)
			tab.Add(hoeff)
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "fig11",
		Title: "Fig 11: bimodal distribution of x for d=8 and d=16 (n=128)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			const n = 128
			samples := o.runs(defaultRuns) * 50
			tab := &stats.Table{
				Title:  "combination of two normal distributions, separation 2d",
				XLabel: "positive nodes x", YLabel: "density",
			}
			for i, d := range []float64{8, 16} {
				bi := dist.SymmetricBimodal(n, d, 0)
				h := dist.NewHistogram(n)
				r := root.Split(uint64(i))
				for s := 0; s < samples; s++ {
					h.Observe(bi.Sample(r))
				}
				series := &stats.Series{Name: fmt.Sprintf("d=%.0f", d)}
				for x := 0; x <= n; x += 2 {
					series.Append(stats.Point{X: float64(x), Y: h.Density(x) + h.Density(x+1), N: samples})
				}
				tab.Add(series)
			}
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "abl-capture",
		Title: "Ablation: capture-effect strength in the 2+ model (N=128, t=16)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			xs := xSweep(defaultN, defaultT)
			tab := &stats.Table{
				Title:  "2tBins 2+ query cost under different capture strengths",
				XLabel: "positive nodes x", YLabel: "queries",
			}
			for i, beta := range []float64{0.25, 0.5, 0.75} {
				beta := beta
				cfg := fastsim.Config{
					Model:                fastsim.TwoPlusConfig().Model,
					Capture:              fastsim.GeometricCapture(beta),
					CaptureEffectPresent: true,
				}
				s, err := sweep(fmt.Sprintf("beta=%.2f", beta), xs, o, root.Split(uint64(i)), func(x int) pointCost {
					return tcastCost(core.TwoTBins{}, defaultN, defaultT, x, cfg, o)
				})
				if err != nil {
					return nil, err
				}
				tab.Add(s)
			}
			s, err := sweep("1/k capture", xs, o, root.Split(99), func(x int) pointCost {
				cfg := fastsim.Config{
					Model:                fastsim.TwoPlusConfig().Model,
					Capture:              fastsim.InverseCapture(),
					CaptureEffectPresent: true,
				}
				return tcastCost(core.TwoTBins{}, defaultN, defaultT, x, cfg, o)
			})
			if err != nil {
				return nil, err
			}
			tab.Add(s)
			return tab, nil
		},
	})

	register(Experiment{
		ID:    "abl-variants",
		Title: "Ablation: Exponential Increase growth variants (N=128, t=16)",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			xs := xSweep(defaultN, defaultT)
			tab := &stats.Table{
				Title:  "the two variants the paper tried and dropped (Section IV-B)",
				XLabel: "positive nodes x", YLabel: "queries",
			}
			for i, alg := range []core.Algorithm{
				core.ExpIncrease{},
				core.ExpIncrease{Variant: core.ExpPauseAndContinue},
				core.ExpIncrease{Variant: core.ExpFourfold},
			} {
				alg := alg
				s, err := sweep(alg.Name(), xs, o, root.Split(uint64(i)), func(x int) pointCost {
					return tcastCost(alg, defaultN, defaultT, x, fastsim.DefaultConfig(), o)
				})
				if err != nil {
					return nil, err
				}
				tab.Add(s)
			}
			return tab, nil
		},
	})
}

// abnsFigure builds the Fig 5 / Fig 6 sweeps, which differ only in
// whether ProbABNS replaces 2tBins in the line-up.
func abnsFigure(probabilistic bool) func(o Options) (*stats.Table, error) {
	return func(o Options) (*stats.Table, error) {
		root := rng.New(o.Seed)
		xs := xSweep(defaultN, defaultT)
		title := "ABNS vs 2tBins vs Oracle"
		if probabilistic {
			title = "probabilistic ABNS vs ABNS vs Oracle"
		}
		tab := &stats.Table{Title: title, XLabel: "positive nodes x", YLabel: "queries"}

		curves := []struct {
			name string
			alg  core.Algorithm
		}{
			{"ABNS(p0=t)", core.ABNS{P0: 1}},
			{"ABNS(p0=2t)", core.ABNS{P0: 2}},
			{"Oracle", core.Oracle{}},
		}
		if probabilistic {
			curves = append([]struct {
				name string
				alg  core.Algorithm
			}{{"ProbABNS", core.ProbABNS{}}}, curves...)
		} else {
			curves = append([]struct {
				name string
				alg  core.Algorithm
			}{{"2tBins", core.TwoTBins{}}}, curves...)
		}
		for i, c := range curves {
			c := c
			s, err := sweep(c.name, xs, o, root.Split(uint64(i)), func(x int) pointCost {
				return tcastCost(c.alg, defaultN, defaultT, x, fastsim.DefaultConfig(), o)
			})
			if err != nil {
				return nil, err
			}
			tab.Add(s)
		}
		return tab, nil
	}
}

// detectorAccuracyCost returns a trial measuring the bimodal detector's
// correctness (1 correct, 0 wrong) at mode separation d.
func detectorAccuracyCost(n int, d float64, repeats func(tl, tr float64) int) pointCost {
	return func(_ int, r *rng.Source) (float64, error) {
		bi := dist.SymmetricBimodal(n, d, 0)
		tl, tr := bi.Boundaries()
		if tl >= tr {
			return 0, fmt.Errorf("boundaries not separated for d=%v", d)
		}
		det := core.NewBimodalDetector(tl, tr, repeats(tl, tr))
		x, quiet := bi.SampleLabeled(r.Split(1))
		ch, _ := fastsim.RandomPositives(n, x, fastsim.DefaultConfig(), r.Split(2))
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		activity, _ := det.Detect(ch, members, r.Split(3))
		if activity == !quiet {
			return 1, nil
		}
		return 0, nil
	}
}
