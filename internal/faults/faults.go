// Package faults is a deterministic fault-injection layer for the query
// and radio substrates: it degrades an otherwise well-behaved substrate
// with the real-radio pathologies the paper's testbed exhibits but the
// i.i.d. per-copy loss model cannot produce — bursty Gilbert–Elliott link
// loss (good/bad channel states per node), node churn (crash/recover
// transitions that silence a node's votes and HACKs mid-session), and
// initiator-side slot skew (a poll whose listen window opens late and
// misses the reply symbols entirely).
//
// Every fault draw comes from a dedicated rng.Source stream handed to the
// injector at construction, never from the substrate's own stream, so a
// faulted run is byte-reproducible and composes with the metrics, trace
// and audit layers in any stacking order. A configured-but-all-zero
// injector consumes no randomness at all and forwards bins untouched,
// which makes a zero-rate faulted run byte-identical to a bare one — the
// reproducibility contract the experiment harness's property test pins.
//
// The Injector wraps a query.Querier (any substrate); Medium wraps a
// radio.Channel for packet-level injection below a pollcast session or
// mote firmware.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// BurstConfig is the per-node Gilbert–Elliott link model. Each node's
// link is a two-state Markov chain stepped once per poll (Injector) or
// per slot (Medium); replies sent while the chain is in the bad state are
// lost with probability MissBad, clustering losses into bursts of mean
// length 1/PBadGood steps.
type BurstConfig struct {
	// PGoodBad is the per-step good→bad transition probability.
	PGoodBad float64
	// PBadGood is the per-step bad→good transition probability; the mean
	// bad-state dwell (burst length) is 1/PBadGood steps.
	PBadGood float64
	// MissGood is the per-reply loss probability while the link is good
	// (residual i.i.d. loss; usually 0).
	MissGood float64
	// MissBad is the per-reply loss probability while the link is bad.
	// New defaults it to 1 when the chain is active (PGoodBad > 0) and
	// MissBad is left zero, so configuring a burst process without an
	// explicit loss rate does what it says.
	MissBad float64
}

// Active reports whether the burst model can lose a reply.
func (b BurstConfig) Active() bool { return b.PGoodBad > 0 || b.MissGood > 0 }

// ChurnConfig is the per-node crash/recover model: an up node crashes
// with CrashProb per step, a down node recovers with RecoverProb per
// step. A down node hears nothing and sends nothing.
type ChurnConfig struct {
	CrashProb   float64
	RecoverProb float64
}

// Active reports whether churn can silence a node.
func (c ChurnConfig) Active() bool { return c.CrashProb > 0 }

// Config bundles the three fault processes. The zero value injects
// nothing and draws nothing.
type Config struct {
	Burst BurstConfig
	Churn ChurnConfig
	// SkewProb is the per-poll probability that the initiator's listen
	// window opens late and misses the first reply symbols — the whole
	// reply is lost and the poll reads as silence.
	SkewProb float64
	// DecodeCorruptProb is the probability that a decoded frame's ID
	// field is corrupted in flight: the initiator decodes a uniformly
	// random node ID instead of the replier's. The forged ID may name a
	// negative or already-eliminated node — the audit layer's
	// corrupt_decode class — so the ledger must not take it at face
	// value. Only fires on 2+ substrates (there is nothing to corrupt in
	// a 1+ activity indication).
	DecodeCorruptProb float64
}

// Active reports whether any fault process can fire. An inactive config
// makes every fault layer a transparent pass-through that consumes no
// randomness.
func (c Config) Active() bool {
	return c.Burst.Active() || c.Churn.Active() || c.SkewProb > 0 || c.DecodeCorruptProb > 0
}

// normalized applies the documented defaulting: an active burst chain
// with no explicit bad-state loss rate loses every reply in the bad
// state.
func (c Config) normalized() Config {
	if c.Burst.PGoodBad > 0 && c.Burst.MissBad == 0 {
		c.Burst.MissBad = 1
	}
	return c
}

// ParseSpec parses the -faults flag syntax: a comma-separated key=value
// list. Keys:
//
//	burst=L     mean bad-state dwell in steps (PBadGood = 1/L)
//	frac=F      stationary bad fraction in [0, 1) fixing PGoodBad
//	            (default 0.2 when burst is set; F/(1-F)/L must be <= 1)
//	missgood=P  per-reply loss in the good state (default 0)
//	missbad=P   per-reply loss in the bad state (default 1)
//	churn=P     per-step crash probability
//	recover=P   per-step recover probability (default 0.1 when churn set)
//	skew=P      per-poll initiator listen-window miss probability
//	corrupt=P   per-decode probability the decoded ID is corrupted to a
//	            uniformly random node (2+ substrates only)
//
// Every value must be a finite number. The empty string parses to the
// zero Config.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	var burstLen, frac float64 = 0, -1
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: %q is not key=value", part)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Config{}, fmt.Errorf("faults: %s: %w", key, err)
		}
		// NaN slips through every range check below and Inf turns the
		// burst rates into zeros, so neither may reach a Config.
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Config{}, fmt.Errorf("faults: %s=%v is not a finite number", key, val)
		}
		switch key {
		case "burst":
			burstLen = f
		case "frac":
			if f < 0 {
				return Config{}, fmt.Errorf("faults: bad fraction %v must be in [0, 1)", f)
			}
			frac = f
		case "missgood":
			cfg.Burst.MissGood = f
		case "missbad":
			cfg.Burst.MissBad = f
		case "churn":
			cfg.Churn.CrashProb = f
		case "recover":
			cfg.Churn.RecoverProb = f
		case "skew":
			cfg.SkewProb = f
		case "corrupt":
			cfg.DecodeCorruptProb = f
		default:
			return Config{}, fmt.Errorf("faults: unknown key %q", key)
		}
	}
	if burstLen < 0 || (burstLen > 0 && burstLen < 1) {
		return Config{}, fmt.Errorf("faults: burst length %v must be >= 1 (or 0 for none)", burstLen)
	}
	if burstLen > 0 {
		if frac < 0 {
			frac = 0.2
		}
		if frac >= 1 {
			return Config{}, fmt.Errorf("faults: bad fraction %v must be in [0, 1)", frac)
		}
		cfg.Burst.PBadGood = 1 / burstLen
		cfg.Burst.PGoodBad = frac / (1 - frac) * cfg.Burst.PBadGood
	} else if frac >= 0 {
		return Config{}, fmt.Errorf("faults: frac without burst")
	}
	if cfg.Churn.Active() && cfg.Churn.RecoverProb == 0 {
		cfg.Churn.RecoverProb = 0.1
	}
	for _, p := range []float64{cfg.Burst.PGoodBad, cfg.Burst.MissGood, cfg.Burst.MissBad, cfg.Churn.CrashProb, cfg.Churn.RecoverProb, cfg.SkewProb, cfg.DecodeCorruptProb} {
		if p < 0 || p > 1 {
			return Config{}, fmt.Errorf("faults: probability %v outside [0, 1]", p)
		}
	}
	return cfg, nil
}

// PollFault records every fault that touched one poll: the step's churn
// transitions plus the bin members this poll silenced. It is the join key
// for audit attribution — a wrong decision's causal poll looks up its
// PollFault to name the injected fault that caused it.
type PollFault struct {
	// Poll is the 0-based poll index within the session.
	Poll int
	// Skewed reports that the initiator's listen window missed the reply
	// and the response was forced to silence.
	Skewed bool
	// Lost lists the bin members whose reply the bursty link dropped.
	Lost []int
	// Silenced lists the bin members that were down (crashed) when
	// polled.
	Silenced []int
	// Crashed and Recovered list the churn transitions drawn at this
	// poll's step, whether or not the nodes were in the bin.
	Crashed, Recovered []int
	// CorruptDecode reports that the decoded frame's ID field was
	// corrupted; ForgedID is the ID the initiator decoded instead.
	CorruptDecode bool
	ForgedID      int
}

// touched reports whether anything observable happened at this poll.
func (f PollFault) touched() bool {
	return f.Skewed || f.CorruptDecode || len(f.Lost) > 0 || len(f.Silenced) > 0 ||
		len(f.Crashed) > 0 || len(f.Recovered) > 0
}

// String renders the event for audit attribution.
func (f PollFault) String() string {
	var parts []string
	if f.Skewed {
		parts = append(parts, "skewed listen window")
	}
	if f.CorruptDecode {
		parts = append(parts, fmt.Sprintf("decode corrupted to ID %d", f.ForgedID))
	}
	if len(f.Lost) > 0 {
		parts = append(parts, fmt.Sprintf("burst-lost replies %v", f.Lost))
	}
	if len(f.Silenced) > 0 {
		parts = append(parts, fmt.Sprintf("crashed nodes %v silent", f.Silenced))
	}
	if len(f.Crashed) > 0 {
		parts = append(parts, fmt.Sprintf("crashed %v", f.Crashed))
	}
	if len(f.Recovered) > 0 {
		parts = append(parts, fmt.Sprintf("recovered %v", f.Recovered))
	}
	if len(parts) == 0 {
		return "no fault"
	}
	return strings.Join(parts, "; ")
}

// Counts aggregates the injector's fault activity for trace annotation.
type Counts struct {
	Polls     int // polls seen
	Skewed    int // polls forced to silence by listen-window skew
	Lost      int // bin memberships dropped by the burst process
	Silenced  int // bin memberships silenced by churn
	Crashes   int // crash transitions
	Recovers  int // recover transitions
	Corrupted int // decoded IDs corrupted in flight
}

// Injector wraps a query.Querier and degrades its polls. It implements
// query.Wrapper, so the observability layers compose with it in any
// order; it is stacked directly above the substrate (below metrics, audit
// and trace), so the auditor grades the degraded responses against
// ground truth and attributes the resulting wrong decisions.
//
// Mechanically, a faulted poll filters the queried bin before it reaches
// the substrate: a down node never hears the poll, and a node whose link
// is in the bad state loses its reply with probability MissBad. Only
// positive nodes reply on every substrate, so removing a member from the
// bin is observationally identical to losing its reply — and it works
// without the injector knowing any predicate values. Skew fires after the
// substrate answers and forces the response to silence.
type Injector struct {
	q   query.Querier
	cfg Config
	r   *rng.Source
	n   int

	bad     []bool // Gilbert–Elliott state per node (true = bad)
	down    []bool // churn state per node (true = crashed)
	poll    int
	scratch []int
	events  []PollFault
	counts  Counts
}

// New wraps q with a fault injector over the population {0..n-1}, drawing
// every fault from r — a stream dedicated to the injector (derive it with
// Split), never shared with the substrate. An inactive cfg yields a
// transparent injector that consumes no randomness.
func New(q query.Querier, cfg Config, n int, r *rng.Source) *Injector {
	return &Injector{
		q: q, cfg: cfg.normalized(), r: r, n: n,
		bad:  make([]bool, n),
		down: make([]bool, n),
	}
}

// Query implements query.Querier: advance the fault processes one step,
// filter the bin, forward the poll, then apply listen-window skew.
func (j *Injector) Query(bin []int) query.Response {
	pf := PollFault{Poll: j.poll}
	j.poll++
	j.counts.Polls++

	effective := bin
	if j.cfg.Active() {
		j.step(&pf)
		effective = j.filter(bin, &pf)
	}
	resp := j.q.Query(effective)
	if j.cfg.SkewProb > 0 && j.r.Bernoulli(j.cfg.SkewProb) {
		pf.Skewed = true
		j.counts.Skewed++
		resp = query.Response{Kind: query.Empty}
	}
	if j.cfg.DecodeCorruptProb > 0 && resp.Kind == query.Decoded &&
		j.r.Bernoulli(j.cfg.DecodeCorruptProb) {
		// Corrupt the frame's ID field: the initiator decodes a uniform
		// random node, which may be negative or already eliminated.
		pf.CorruptDecode = true
		pf.ForgedID = j.r.Intn(j.n)
		j.counts.Corrupted++
		resp.DecodedID = pf.ForgedID
	}
	if pf.touched() {
		j.events = append(j.events, pf)
	}
	return resp
}

// step advances every node's churn and link chains by one poll.
func (j *Injector) step(pf *PollFault) {
	for id := 0; id < j.n; id++ {
		if j.down[id] {
			if j.r.Bernoulli(j.cfg.Churn.RecoverProb) {
				j.down[id] = false
				j.counts.Recovers++
				pf.Recovered = append(pf.Recovered, id)
			}
		} else if j.r.Bernoulli(j.cfg.Churn.CrashProb) {
			j.down[id] = true
			j.counts.Crashes++
			pf.Crashed = append(pf.Crashed, id)
		}
		if j.bad[id] {
			if j.r.Bernoulli(j.cfg.Burst.PBadGood) {
				j.bad[id] = false
			}
		} else if j.r.Bernoulli(j.cfg.Burst.PGoodBad) {
			j.bad[id] = true
		}
	}
}

// filter returns bin minus this poll's casualties. The input slice is
// returned untouched when nothing drops; otherwise the survivors land in
// a reused scratch buffer (substrates consume the bin synchronously).
func (j *Injector) filter(bin []int, pf *PollFault) []int {
	eff := bin
	copied := false
	for i, id := range bin {
		drop := false
		if id >= 0 && id < j.n {
			switch {
			case j.down[id]:
				drop = true
				j.counts.Silenced++
				pf.Silenced = append(pf.Silenced, id)
			case j.bad[id] && j.r.Bernoulli(j.cfg.Burst.MissBad):
				drop = true
				j.counts.Lost++
				pf.Lost = append(pf.Lost, id)
			case !j.bad[id] && j.r.Bernoulli(j.cfg.Burst.MissGood):
				drop = true
				j.counts.Lost++
				pf.Lost = append(pf.Lost, id)
			}
		}
		switch {
		case drop && !copied:
			eff = append(j.scratch[:0], bin[:i]...)
			copied = true
		case !drop && copied:
			eff = append(eff, id)
		}
	}
	if copied {
		j.scratch = eff
	}
	return eff
}

// Traits implements query.Querier.
func (j *Injector) Traits() query.Traits { return j.q.Traits() }

// Unwrap implements query.Wrapper, so audit discovers the substrate's
// ground truth through the injector and the trace layer finds the
// substrate's slot meter below it.
func (j *Injector) Unwrap() query.Querier { return j.q }

// TraceRound forwards the algorithms' round-boundary hook down the chain.
func (j *Injector) TraceRound(round int) {
	if rt, ok := j.q.(interface{ TraceRound(round int) }); ok {
		rt.TraceRound(round)
	}
}

// Lossless implements the audit layer's conjunctive losslessness probe: an
// active injector can drop replies, so the bound invariants must not be
// enforced above it even when the substrate underneath is lossless.
func (j *Injector) Lossless() bool { return !j.cfg.Active() }

// TraceAttrs implements trace.Annotator. An inactive injector contributes
// nothing, keeping zero-rate faulted traces byte-identical to bare ones.
func (j *Injector) TraceAttrs() []trace.Attr {
	if !j.cfg.Active() {
		return nil
	}
	return []trace.Attr{
		trace.IntAttr("fault_polls", j.counts.Polls),
		trace.IntAttr("fault_skewed", j.counts.Skewed),
		trace.IntAttr("fault_lost", j.counts.Lost),
		trace.IntAttr("fault_silenced", j.counts.Silenced),
		trace.IntAttr("fault_crashes", j.counts.Crashes),
		trace.IntAttr("fault_recovers", j.counts.Recovers),
		trace.IntAttr("fault_corrupted", j.counts.Corrupted),
	}
}

// Counts returns the aggregate fault activity so far.
func (j *Injector) Counts() Counts { return j.counts }

// Events returns the per-poll fault log: one entry per poll that a fault
// touched, in poll order.
func (j *Injector) Events() []PollFault { return j.events }

// Describe names the fault event at the given poll, for joining an audit
// verdict's causal poll to its cause. Polls no fault touched — and
// out-of-range indices such as the -1 of an unattributed verdict — read
// "no injected fault".
func (j *Injector) Describe(poll int) string {
	i := sort.Search(len(j.events), func(i int) bool { return j.events[i].Poll >= poll })
	if i < len(j.events) && j.events[i].Poll == poll {
		return fmt.Sprintf("poll %d: %s", poll, j.events[i])
	}
	return "no injected fault"
}

// Link is the single-channel form of the Gilbert–Elliott model, for
// substrates without per-node identity (the CSMA baseline's contention
// channel): one chain, stepped once per Lost call — i.e. once per reply
// opportunity, the same clock the Injector steps per poll.
type Link struct {
	cfg BurstConfig
	r   *rng.Source
	bad bool
}

// NewLink creates a single Gilbert–Elliott link drawing from r.
func NewLink(cfg BurstConfig, r *rng.Source) *Link {
	c := Config{Burst: cfg}.normalized()
	return &Link{cfg: c.Burst, r: r}
}

// Lost advances the chain one step and reports whether a frame sent this
// step is lost.
func (l *Link) Lost() bool {
	if l.bad {
		if l.r.Bernoulli(l.cfg.PBadGood) {
			l.bad = false
		}
	} else if l.r.Bernoulli(l.cfg.PGoodBad) {
		l.bad = true
	}
	if l.bad {
		return l.r.Bernoulli(l.cfg.MissBad)
	}
	return l.r.Bernoulli(l.cfg.MissGood)
}
