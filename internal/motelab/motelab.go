// Package motelab is the central controlling unit of the Section IV-D
// experiments — the paper's laptop. It boots an initiator and a set of
// participant motes, connects to each over its serial interface, and runs
// batches of TCast trials: configure the motes with the run settings,
// stimulate the initiator to query, collect the result, reboot everything,
// repeat. Because the lab knows the ground truth it configured, it can
// grade every run for false positives/negatives and attribute errors to
// the number of superposing HACKs in the failing group — the analysis
// behind Figure 4 and the 1.4% error-rate report.
package motelab

import (
	"fmt"
	"strconv"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/metrics"
	"tcast/internal/mote"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// Config describes the emulated testbed.
type Config struct {
	// Participants is the number of participant motes (the paper
	// deploys 12 plus the initiator).
	Participants int
	// MissProb is the per-HACK-copy reception-loss probability. The
	// default 0.05 is calibrated so the paper's campaign (thresholds
	// 2/4/6, 100 runs per configuration) lands near the reported 1.4%
	// aggregate false-negative rate (measured: 1.54% at seed 2011),
	// with errors concentrated in single-HACK groups and essentially
	// none in superposed groups.
	MissProb float64
	// Algorithm selects the initiator firmware; nil means 2tBins, the
	// algorithm the paper deployed.
	Algorithm core.Algorithm
	// PerMoteMiss, when non-nil, assigns each mote its own HACK-loss
	// probability (length Participants), overriding MissProb. Real
	// testbeds have bad links — a far or occluded mote loses more
	// frames — and per-mote loss lets the lab reproduce error
	// concentration on specific motes.
	PerMoteMiss []float64
	// Seed drives all lab randomness.
	Seed uint64
	// Metrics, when non-nil, receives every group poll of the campaign
	// (replayed from the initiator's trace) and per-session totals,
	// under the same instrument names as the simulation substrates.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives virtual-time spans for every run:
	// trial → session → poll, replayed from the initiator's poll record
	// at backcast cost (3 RCD slots per group query). The lab runs
	// trials sequentially, so span order depends only on the seed.
	Trace *trace.Builder
	// Audit, when non-nil, grades every run's poll record against the
	// ground truth the lab configured (audit.GradeReplay over the
	// initiator's trace), attributing each wrong decision to its first
	// causal poll.
	Audit *audit.Collector
	// Obs, when non-nil, streams each run onto the bus: session start,
	// one poll event per group query (replayed from the initiator's
	// trace), and a graded verdict — wrong decisions raise anomaly
	// events carrying the causal poll, which trip a subscribed flight
	// recorder. The lab runs sequentially, so the stream order depends
	// only on the seed.
	Obs *obs.Bus
}

// DefaultConfig returns the paper's testbed shape.
func DefaultConfig() Config {
	return Config{Participants: 12, MissProb: 0.05, Seed: 1}
}

// Stats aggregates a batch of graded TCast runs.
type Stats struct {
	// Trials is the number of TCast runs graded.
	Trials int
	// FalsePositives counts runs deciding true with ground truth x < t.
	FalsePositives int
	// FalseNegatives counts runs deciding false with ground truth
	// x >= t.
	FalseNegatives int
	// TotalQueries sums group polls across runs.
	TotalQueries int
	// MissedBySuperposition[k] counts group queries in which the polled
	// bin held k ground-truth positives but the initiator heard
	// silence — the radio-irregularity events behind false negatives.
	MissedBySuperposition map[int]int
	// QueriesBySuperposition[k] counts all group queries whose bin held
	// k ground-truth positives.
	QueriesBySuperposition map[int]int
	// MissedByMote counts, for each positive mote, the miss events it
	// was involved in — how error mass distributes over (possibly
	// heterogeneous) links.
	MissedByMote map[int]int
}

// ErrorRate returns the fraction of graded runs with a wrong decision.
func (s Stats) ErrorRate() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.FalsePositives+s.FalseNegatives) / float64(s.Trials)
}

// AvgQueries returns the mean group polls per run.
func (s Stats) AvgQueries() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.TotalQueries) / float64(s.Trials)
}

// MissRate returns the fraction of k-positive group queries that were
// wrongly heard as silence.
func (s Stats) MissRate(k int) float64 {
	if s.QueriesBySuperposition[k] == 0 {
		return 0
	}
	return float64(s.MissedBySuperposition[k]) / float64(s.QueriesBySuperposition[k])
}

// Merge folds other into s.
func (s *Stats) Merge(other Stats) {
	s.Trials += other.Trials
	s.FalsePositives += other.FalsePositives
	s.FalseNegatives += other.FalseNegatives
	s.TotalQueries += other.TotalQueries
	for k, v := range other.MissedBySuperposition {
		s.MissedBySuperposition[k] += v
	}
	for k, v := range other.QueriesBySuperposition {
		s.QueriesBySuperposition[k] += v
	}
	for id, v := range other.MissedByMote {
		s.MissedByMote[id] += v
	}
}

func newStats() Stats {
	return Stats{
		MissedBySuperposition:  make(map[int]int),
		QueriesBySuperposition: make(map[int]int),
		MissedByMote:           make(map[int]int),
	}
}

// Lab is a running emulated testbed.
type Lab struct {
	cfg       Config
	root      *rng.Source
	parts     []*mote.Participant
	initiator *mote.Initiator
}

// initiatorID keeps the querying mote's radio ID clear of the
// participants' 0..n-1 range.
const initiatorID = 1 << 16

// New boots the testbed: participant motes 0..Participants-1 plus the
// initiator, sharing one radio medium.
func New(cfg Config) (*Lab, error) {
	if cfg.Participants <= 0 {
		return nil, fmt.Errorf("motelab: need at least one participant, got %d", cfg.Participants)
	}
	if cfg.PerMoteMiss != nil && len(cfg.PerMoteMiss) != cfg.Participants {
		return nil, fmt.Errorf("motelab: %d per-mote loss rates for %d motes", len(cfg.PerMoteMiss), cfg.Participants)
	}
	root := rng.New(cfg.Seed)
	radioCfg := radio.Config{MissProb: cfg.MissProb}
	if cfg.PerMoteMiss != nil {
		perMote := append([]float64(nil), cfg.PerMoteMiss...)
		radioCfg.MissProbFor = func(src int) float64 {
			if src >= 0 && src < len(perMote) {
				return perMote[src]
			}
			return cfg.MissProb
		}
	}
	med := radio.NewMedium(radioCfg, root.Split(1))
	parts := make([]*mote.Participant, cfg.Participants)
	for i := range parts {
		parts[i] = mote.NewParticipant(i)
	}
	alg := cfg.Algorithm
	if alg == nil {
		alg = core.TwoTBins{}
	}
	ini := mote.NewInitiatorWithAlgorithm(initiatorID, alg, med, parts, root.Split(2))
	return &Lab{cfg: cfg, root: root, parts: parts, initiator: ini}, nil
}

// algName names the initiator firmware's algorithm for span labels.
func (l *Lab) algName() string {
	if l.cfg.Algorithm != nil {
		return l.cfg.Algorithm.Name()
	}
	return core.TwoTBins{}.Name()
}

// Close shuts all motes down.
func (l *Lab) Close() {
	l.initiator.Close()
	for _, p := range l.parts {
		p.Close()
	}
}

// RunBatch performs repeats TCast runs with exactly x positive motes and
// the given threshold, grading each against the configured ground truth.
func (l *Lab) RunBatch(threshold, x, repeats int) (Stats, error) {
	if x < 0 || x > len(l.parts) {
		return Stats{}, fmt.Errorf("motelab: x=%d out of range [0,%d]", x, len(l.parts))
	}
	stats := newStats()
	for rep := 0; rep < repeats; rep++ {
		r := l.root.Split(uint64(threshold)<<40 | uint64(x)<<20 | uint64(rep))

		// Reboot everything "to remove the effect of the previous run".
		l.initiator.Reboot()
		for _, p := range l.parts {
			p.Reboot()
		}

		// Configure the run: x random positives and the threshold.
		positive := make(map[int]bool, x)
		for _, id := range r.Sample(len(l.parts), x) {
			positive[id] = true
		}
		for _, p := range l.parts {
			p.Configure(positive[p.ID()])
		}
		l.initiator.Configure(threshold)

		// Stimulate the query and collect the result.
		outcome, err := l.initiator.Query()
		if err != nil {
			return Stats{}, err
		}

		if m := l.cfg.Metrics; m != nil {
			mo := metrics.NewObserver(m)
			for _, rec := range outcome.Trace {
				kind := query.Active
				if rec.Empty {
					kind = query.Empty
				}
				mo.Record(kind, len(rec.Bin))
			}
			mo.Finish()
		}
		if b := l.cfg.Trace; b != nil {
			// Replay the initiator's poll record as spans. Backcast
			// charges 3 RCD slots per group query (bind, poll, HACK).
			b.Begin(trace.KindTrial, "rep "+strconv.Itoa(rep))
			sess := b.Begin(trace.KindSession, l.algName())
			sess.SetAttr(
				trace.StringAttr("substrate", "motelab"),
				trace.StringAttr("primitive", "backcast"),
				trace.IntAttr("n", len(l.parts)),
				trace.IntAttr("t", threshold),
				trace.IntAttr("x", x),
			)
			nodes := 0
			for i, rec := range outcome.Trace {
				sp := b.Begin(trace.KindPoll, "poll "+strconv.Itoa(i))
				b.Advance(3)
				kind := query.Active
				if rec.Empty {
					kind = query.Empty
				}
				sp.SetAttr(
					trace.IntAttr("bin_size", len(rec.Bin)),
					trace.StringAttr("kind", kind.String()),
				)
				b.End()
				nodes += len(rec.Bin)
			}
			sess.SetAttr(
				trace.IntAttr("polls", len(outcome.Trace)),
				trace.IntAttr("nodes_polled", nodes),
				trace.BoolAttr("decision", outcome.Decision),
				trace.IntAttr("queries", outcome.Queries),
			)
			b.End() // session
			b.End() // trial
		}
		if l.cfg.Audit != nil || l.cfg.Obs != nil {
			// Grade the run from the initiator's poll record. Backcast
			// responses are binary (Empty/Active), so the 1+ traits apply
			// regardless of the firmware's radio.
			polls := make([]audit.ReplayPoll, len(outcome.Trace))
			for i, rec := range outcome.Trace {
				kind := query.Active
				if rec.Empty {
					kind = query.Empty
				}
				polls[i] = audit.ReplayPoll{Bin: rec.Bin, Resp: query.Response{Kind: kind}}
			}
			truth := audit.TruthFunc(func(id int) bool { return positive[id] })
			label := fmt.Sprintf("motelab/%s/t=%d/x=%d/rep=%d", l.algName(), threshold, x, rep)
			v := audit.GradeReplay(threshold, x, truth,
				query.Traits{Model: query.OnePlus}, polls, outcome.Decision)
			if c := l.cfg.Audit; c != nil {
				c.Add(label, v)
			}
			if bus := l.cfg.Obs; bus != nil {
				obs.PublishSessionStart(bus, label, rep)
				for i, p := range polls {
					bus.Publish(obs.Event{
						Kind: obs.KindPoll, Session: label, Trial: rep,
						Poll: i, Bin: len(p.Bin), Outcome: p.Resp.Kind.String(),
						CausalPoll: -1,
					})
				}
				// Backcast charges 3 RCD slots per group query; there is no
				// querier chain to walk on the replay path.
				obs.PublishVerdict(bus, label, rep, v, int64(3*len(polls)), "")
			}
		}

		stats.Trials++
		stats.TotalQueries += outcome.Queries
		truth := x >= threshold
		if outcome.Decision && !truth {
			stats.FalsePositives++
		}
		if !outcome.Decision && truth {
			stats.FalseNegatives++
		}
		for _, rec := range outcome.Trace {
			k := 0
			for _, id := range rec.Bin {
				if positive[id] {
					k++
				}
			}
			if k == 0 {
				continue
			}
			stats.QueriesBySuperposition[k]++
			if rec.Empty {
				stats.MissedBySuperposition[k]++
				for _, id := range rec.Bin {
					if positive[id] {
						stats.MissedByMote[id]++
					}
				}
			}
		}
	}
	return stats, nil
}

// RunPaperProtocol reproduces the full Section IV-D campaign: thresholds
// 2, 4 and 6, every x from 0 to Participants, repeats runs each. It
// returns per-threshold-and-x mean query counts plus the aggregate error
// statistics.
func (l *Lab) RunPaperProtocol(repeats int) (map[int]map[int]float64, Stats, error) {
	curves := make(map[int]map[int]float64)
	agg := newStats()
	for _, th := range []int{2, 4, 6} {
		curves[th] = make(map[int]float64)
		if b := l.cfg.Trace; b != nil {
			b.Begin(trace.KindSeries, "t="+strconv.Itoa(th))
		}
		for x := 0; x <= len(l.parts); x++ {
			if b := l.cfg.Trace; b != nil {
				sp := b.Begin(trace.KindPoint, "x="+strconv.Itoa(x))
				sp.SetAttr(trace.IntAttr("x", x), trace.IntAttr("runs", repeats))
			}
			st, err := l.RunBatch(th, x, repeats)
			if b := l.cfg.Trace; b != nil {
				b.End() // point, closed before the error check
			}
			if err != nil {
				if b := l.cfg.Trace; b != nil {
					b.End() // series
				}
				return nil, Stats{}, err
			}
			curves[th][x] = st.AvgQueries()
			agg.Merge(st)
		}
		if b := l.cfg.Trace; b != nil {
			b.End() // series
		}
	}
	return curves, agg, nil
}
