package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// SLO evaluates declarative health rules against the live verdict
// stream. Each rule classifies every session verdict as conforming or
// violating, over a sliding window of the last Window verdicts; a rule
// fails when its violating fraction exceeds its error budget. Rule
// transitions (pass→fail, fail→pass) are published back onto the bus as
// KindSLO events, and a pass→fail additionally raises a KindAnomaly
// (AnomalySLO) so the flight recorder dumps the surrounding context.
//
// Rules are parsed from a compact spec, comma-separated:
//
//	maxpolls=96,maxslots=288,minacc=0.99,window=1000
//
// maxpolls / maxslots bound one session's poll count and virtual-slot
// cost; their budget defaults to zero (a single overrun fails the rule)
// and can be relaxed with an @fraction suffix (maxpolls=96@0.01 allows
// 1% of sessions over). minacc=F is window-fractional by construction:
// its budget is 1-F. window=N sets the sliding-window size for all
// rules (default DefaultWindow).
type SLO struct {
	mu      sync.Mutex
	rules   []Rule
	window  int
	ring    []uint8 // per-verdict bitmask, bit i = rules[i] violated
	next    int
	full    bool
	seen    uint64   // lifetime verdicts
	viol    []int    // violations inside the current window, per rule
	total   []uint64 // lifetime violations, per rule
	failing []bool
	bus     *Bus // transition events go back onto the bus
}

// Rule is one parsed SLO clause.
type Rule struct {
	// Name is the canonical rule name: max_polls, max_slots, min_accuracy.
	Name string
	// Threshold is the clause's numeric bound.
	Threshold float64
	// Budget is the violating fraction of windowed verdicts the rule
	// tolerates before failing.
	Budget float64
	// violates reports whether one verdict event breaks the clause.
	violates func(Event) bool
}

// DefaultWindow is the sliding-window size when the spec sets none.
const DefaultWindow = 1000

// maxRules is fixed by the uint8 ring bitmask; ParseRules rejects specs
// beyond it.
const maxRules = 8

// ParseRules parses an SLO spec (see the SLO doc comment) into rules and
// a window size.
func ParseRules(spec string) ([]Rule, int, error) {
	window := DefaultWindow
	var rules []Rule
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, 0, fmt.Errorf("slo: clause %q is not key=value", clause)
		}
		val, budgetStr, hasBudget := cutBudget(val)
		budget := 0.0
		if hasBudget {
			b, err := strconv.ParseFloat(budgetStr, 64)
			// Negated so NaN, which fails every comparison, is rejected
			// too: a NaN budget would silently disable the rule.
			if err != nil || !(b >= 0 && b < 1) {
				return nil, 0, fmt.Errorf("slo: budget %q must be a fraction in [0,1)", budgetStr)
			}
			budget = b
		}
		switch key {
		case "window":
			if hasBudget {
				return nil, 0, fmt.Errorf("slo: window takes no @budget")
			}
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return nil, 0, fmt.Errorf("slo: window %q must be a positive integer", val)
			}
			window = n
		case "maxpolls":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return nil, 0, fmt.Errorf("slo: maxpolls %q must be a positive integer", val)
			}
			rules = append(rules, Rule{
				Name: "max_polls", Threshold: float64(n), Budget: budget,
				violates: func(e Event) bool { return e.Polls > n },
			})
		case "maxslots":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 {
				return nil, 0, fmt.Errorf("slo: maxslots %q must be a positive integer", val)
			}
			rules = append(rules, Rule{
				Name: "max_slots", Threshold: float64(n), Budget: budget,
				violates: func(e Event) bool { return e.Slots > n },
			})
		case "minacc":
			if hasBudget {
				return nil, 0, fmt.Errorf("slo: minacc takes no @budget (its budget is 1-threshold)")
			}
			f, err := strconv.ParseFloat(val, 64)
			// 1-f rounds to 1 for f below ~1e-16: a budget of 1 can
			// never be exceeded, so such a rule would never fail.
			if err != nil || !(f > 0 && f <= 1) || 1-f >= 1 {
				return nil, 0, fmt.Errorf("slo: minacc %q must be a fraction in (0,1]", val)
			}
			rules = append(rules, Rule{
				Name: "min_accuracy", Threshold: f, Budget: 1 - f,
				violates: func(e Event) bool { return !e.Correct },
			})
		default:
			return nil, 0, fmt.Errorf("slo: unknown clause key %q", key)
		}
	}
	if len(rules) == 0 {
		return nil, 0, fmt.Errorf("slo: spec %q declares no rules", spec)
	}
	if len(rules) > maxRules {
		return nil, 0, fmt.Errorf("slo: at most %d rules supported, got %d", maxRules, len(rules))
	}
	return rules, window, nil
}

// cutBudget splits "value@budget" into its halves.
func cutBudget(s string) (val, budget string, ok bool) {
	val, budget, ok = strings.Cut(s, "@")
	return val, budget, ok
}

// NewSLO builds an engine over rules with the given window. The bus, if
// non-nil, receives rule-transition events; callers then Subscribe the
// engine to the same bus so it sees verdicts.
func NewSLO(rules []Rule, window int, bus *Bus) *SLO {
	if window <= 0 {
		window = DefaultWindow
	}
	return &SLO{
		rules:   rules,
		window:  window,
		ring:    make([]uint8, window),
		viol:    make([]int, len(rules)),
		total:   make([]uint64, len(rules)),
		failing: make([]bool, len(rules)),
		bus:     bus,
	}
}

// OnEvent implements Sink: only session verdicts advance the window;
// everything else (including the engine's own transition events coming
// back around the bus) is ignored before any lock is taken.
func (s *SLO) OnEvent(e Event) {
	if e.Kind != KindSessionVerdict {
		return
	}
	s.mu.Lock()
	var transitions []Event
	// Retire the verdict falling out of the window.
	if s.full {
		old := s.ring[s.next]
		for i := range s.rules {
			if old&(1<<i) != 0 {
				s.viol[i]--
			}
		}
	}
	var mask uint8
	for i, r := range s.rules {
		if r.violates(e) {
			mask |= 1 << i
			s.viol[i]++
			s.total[i]++
		}
	}
	s.ring[s.next] = mask
	s.next++
	if s.next == s.window {
		s.next = 0
		s.full = true
	}
	s.seen++
	n := s.window
	if !s.full {
		n = s.next
	}
	for i, r := range s.rules {
		frac := float64(s.viol[i]) / float64(n)
		nowFailing := frac > r.Budget
		if nowFailing == s.failing[i] {
			continue
		}
		s.failing[i] = nowFailing
		detail := fmt.Sprintf("%d/%d windowed verdicts violate (budget %.4g)", s.viol[i], n, r.Budget)
		state := "recovered"
		if nowFailing {
			state = "failing"
		}
		transitions = append(transitions, Event{
			Kind: KindSLO, Outcome: r.Name, Detail: state + ": " + detail,
			Trial: e.Trial, Poll: -1, CausalPoll: -1,
		})
		if nowFailing {
			transitions = append(transitions, Event{
				Kind: KindAnomaly, Outcome: AnomalySLO,
				Detail:  r.Name + " " + detail,
				Session: e.Session, Trial: e.Trial, Poll: -1,
				CausalPoll: e.CausalPoll,
			})
		}
	}
	s.mu.Unlock()
	for _, t := range transitions {
		s.bus.Publish(t)
	}
}

// RuleReport is one rule's live state in a Report.
type RuleReport struct {
	Rule            string  `json:"rule"`
	Threshold       float64 `json:"threshold"`
	Budget          float64 `json:"budget"`
	Window          int     `json:"window"`
	Seen            int     `json:"seen"`
	Violations      int     `json:"violations"`
	TotalViolations uint64  `json:"total_violations"`
	ViolatingFrac   float64 `json:"violating_frac"`
	// BurnRate is the violating fraction over the budget — 1.0 means the
	// budget is exactly spent. For zero-budget rules it is -1 while
	// violating (infinite burn) and 0 otherwise.
	BurnRate float64 `json:"burn_rate"`
	Healthy  bool    `json:"healthy"`
}

// Report is the /slo endpoint's JSON body. EventsDropped and Sketches
// are filled by the serving handler, not the engine: dropped-event
// counts come from the SSE clients and sketches from the sketch sink.
type Report struct {
	Healthy  bool         `json:"healthy"`
	Verdicts uint64       `json:"verdicts"`
	Rules    []RuleReport `json:"rules"`
	// EventsDropped totals bus events dropped toward slow /events
	// clients since startup.
	EventsDropped uint64 `json:"events_dropped"`
	// Sketches is the sketch sink's cost-distribution snapshot, absent
	// when the sink is disabled.
	Sketches *SketchReport `json:"sketches,omitempty"`
}

// Report snapshots every rule's state.
func (s *SLO) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.window
	if !s.full {
		n = s.next
	}
	rep := Report{Healthy: true, Verdicts: s.seen}
	for i, r := range s.rules {
		frac := 0.0
		if n > 0 {
			frac = float64(s.viol[i]) / float64(n)
		}
		burn := 0.0
		switch {
		case r.Budget > 0:
			burn = frac / r.Budget
		case s.viol[i] > 0:
			burn = -1
		}
		rr := RuleReport{
			Rule: r.Name, Threshold: r.Threshold, Budget: r.Budget,
			Window: s.window, Seen: n,
			Violations: s.viol[i], TotalViolations: s.total[i],
			ViolatingFrac: frac, BurnRate: burn,
			Healthy: !s.failing[i],
		}
		if s.failing[i] {
			rep.Healthy = false
		}
		rep.Rules = append(rep.Rules, rr)
	}
	return rep
}

// Healthy reports whether every rule currently passes.
func (s *SLO) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.failing {
		if f {
			return false
		}
	}
	return true
}
