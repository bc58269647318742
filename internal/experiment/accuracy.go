package experiment

import (
	"fmt"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/pollcast"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
	"tcast/internal/stats"
	"tcast/internal/trial"
)

// tab-acc is the accuracy-breakdown campaign: 2tBins over the packet-level
// backcast substrate with increasing per-HACK-copy reply loss, every
// session graded by the ground-truth auditor. Backcast is the right
// primitive for loss analysis: a bin answers Empty exactly when every
// superposed HACK copy is dropped — the radio false negative behind the
// paper's Section IV-D error report — whereas pollcast's CCA energy
// sensing is loss-immune. Unlike the figure experiments — which run on
// effectively lossless substrates and treat a wrong decision as a harness
// error — this campaign *wants* wrong decisions, so it can attribute each
// one to the first causal unsound poll. Both packet-level campaigns
// (tab-acc, ext-faults) poll the same population.
const (
	backcastN = 24 // participants
	backcastT = 6  // threshold
	backcastX = 8  // true positives: x > t, so loss-induced errors decide "no"
)

// accMissPcts are the swept per-reply loss probabilities, in percent.
var accMissPcts = []int{0, 2, 5, 10, 15, 20}

// backcastPoint runs one point of the packet-level campaigns (tab-acc,
// ext-faults): 2tBins, on its Split(3) stream, over a backcast session on
// a radio medium that loses each reply copy with probability miss, below
// stack's fault and retry layers. Every session is audited. It returns
// the point's own collector, the per-trial correctness values, and how
// many wrong decisions the fault injector explains; those sessions'
// labels name the fault. Verdicts also fold into o.Audit, flushed in
// trial order once the point drains, so dumps are worker-independent.
func backcastPoint(prefix string, miss float64, stack trial.Stack, o Options, root *rng.Source) (*audit.Collector, []float64, int, error) {
	stack.Metrics, stack.Audit, stack.Obs = o.Metrics, o.Audit, o.Obs
	col := &audit.Collector{}
	runs := o.runs(200)
	attributed := make([]bool, runs)
	values, err := RunTrials(runs, o.workers(), root, func(i int, r *rng.Source) (float64, error) {
		med := radio.NewMedium(radio.Config{MissProb: miss}, r.Split(1))
		parts := make([]*pollcast.Participant, backcastN)
		positive := make(map[int]bool, backcastX)
		for _, id := range r.Split(2).Sample(backcastN, backcastX) {
			positive[id] = true
		}
		for id := range parts {
			parts[id] = &pollcast.Participant{ID: id, Positive: positive[id]}
		}
		sub, err := pollcast.NewSession(med, backcastN, parts, pollcast.Backcast, query.OnePlus)
		if err != nil {
			return 0, err
		}
		st := trial.Get()
		defer trial.Put(st)
		sess, err := stack.Open(st, sub, core.TwoTBins{}, r, trial.Trial{
			Index: i, Label: fmt.Sprintf("%s/trial=%d", prefix, i),
			N: backcastN, T: backcastT, X: backcastX, Stream: 3, Audit: true,
		})
		if err != nil {
			return 0, err
		}
		if _, err := sess.Run(); err != nil {
			return 0, err
		}
		v := sess.Verdict
		if !v.Correct() {
			if cause := sess.Cause(); cause != "" {
				sess.Label += " [" + cause + "]"
				attributed[i] = true
			}
		}
		col.AddAt(i, sess.Label, v)
		sess.Publish()
		if v.Correct() {
			return 1, nil
		}
		return 0, nil
	})
	if err != nil {
		if o.Audit != nil {
			o.Audit.Discard()
		}
		return nil, nil, 0, err
	}
	col.Flush()
	if o.Audit != nil {
		o.Audit.Flush()
	}
	n := 0
	for _, a := range attributed {
		if a {
			n++
		}
	}
	return col, values, n, nil
}

func init() {
	register(Experiment{
		ID:    "tab-acc",
		Title: "Auditing accuracy: 2tBins over lossy backcast, wrong decisions attributed to causal polls",
		Run: func(o Options) (*stats.Table, error) {
			root := rng.New(o.Seed)
			tab := &stats.Table{
				Title: fmt.Sprintf("audited backcast campaign: N=%d, t=%d, x=%d (truth: yes)",
					backcastN, backcastT, backcastX),
				XLabel: "reply loss %", YLabel: "rate / count",
			}
			accuracy := &stats.Series{Name: "decision accuracy"}
			wrongLoss := &stats.Series{Name: "wrong decisions (attributed to loss)"}
			wrongAlg := &stats.Series{Name: "wrong decisions (algorithm)"}
			fnPolls := &stats.Series{Name: "false-negative polls per session"}
			violations := &stats.Series{Name: "invariant violations"}
			for _, missPct := range accMissPcts {
				col, values, _, err := backcastPoint(fmt.Sprintf("2tBins/backcast/miss=%d%%", missPct),
					float64(missPct)/100, trial.Stack{Faults: o.Faults, Retry: o.Retry}, o, root.Split(uint64(missPct)))
				if err != nil {
					return nil, fmt.Errorf("experiment: tab-acc at miss=%d%%: %w", missPct, err)
				}
				var acc stats.Running
				for _, v := range values {
					acc.Observe(v)
				}
				st := col.Stats()
				x := float64(missPct)
				accuracy.Append(stats.Point{X: x, Y: acc.Mean(), Err: acc.CI95(), N: acc.N()})
				wrongLoss.Append(stats.Point{X: x, Y: float64(st.Outcomes[audit.OutcomeWrongLoss]), N: st.Sessions})
				wrongAlg.Append(stats.Point{X: x, Y: float64(st.Outcomes[audit.OutcomeWrongAlgorithm]), N: st.Sessions})
				fnPolls.Append(stats.Point{X: x, Y: float64(st.Classes[audit.ClassFalseNegative]) / float64(st.Sessions), N: st.Sessions})
				violations.Append(stats.Point{X: x, Y: float64(st.Violations()), N: st.Sessions})
			}
			tab.Add(accuracy)
			tab.Add(wrongLoss)
			tab.Add(wrongAlg)
			tab.Add(fnPolls)
			tab.Add(violations)
			return tab, nil
		},
	})
}
