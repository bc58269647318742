package obs

import (
	"fmt"

	"tcast/internal/audit"
	"tcast/internal/faults"
	"tcast/internal/query"
)

// Emit helpers: the vocabulary the experiment harness and cmds publish
// with. Every helper is a no-op on a nil bus, so call sites need no
// guards, and none of them consume randomness.

// PublishSessionStart announces one query session beginning.
func PublishSessionStart(b *Bus, session string, trial int) {
	if b == nil {
		return
	}
	b.Publish(Event{Kind: KindSessionStart, Session: session, Trial: trial, Poll: -1, CausalPoll: -1})
}

// PublishVerdict closes one audited session on the bus: the verdict event
// itself, one anomaly per Knowledge-invariant violation, and — for a
// wrong decision — a wrong-verdict anomaly carrying the causal poll,
// joined through q's middleware chain to the injected fault that explains
// it when one does. The anomaly events are what trip the flight recorder.
func PublishVerdict(b *Bus, session string, trial int, v audit.Verdict, slots int64, q query.Querier) {
	if b == nil {
		return
	}
	b.Publish(Event{
		Kind: KindSessionVerdict, Session: session, Trial: trial, Poll: -1,
		Outcome: v.Outcome.String(), Correct: v.Correct(),
		Polls: v.Polls, Slots: slots, CausalPoll: v.CausalPoll,
	})
	for _, viol := range v.Violations {
		b.Publish(Event{
			Kind: KindAnomaly, Session: session, Trial: trial, Poll: viol.Poll,
			Outcome: AnomalyInvariant,
			Detail:  viol.Invariant.String() + ": " + viol.Detail,

			CausalPoll: -1,
		})
	}
	if v.Correct() {
		return
	}
	detail := fmt.Sprintf("decision %v but truth %v (true x=%d), outcome %s",
		v.Decision, v.Truth, v.TrueX, v.Outcome)
	if v.CausalPoll >= 0 {
		detail += fmt.Sprintf("; causal poll %d (%s)", v.CausalPoll, v.CausalClass)
		if cause := DescribeCause(q, v.CausalPoll); cause != "" {
			detail += ", " + cause
		}
	}
	b.Publish(Event{
		Kind: KindAnomaly, Session: session, Trial: trial, Poll: -1,
		Outcome: AnomalyWrongVerdict, Detail: detail,
		CausalPoll: v.CausalPoll,
	})
}

// PublishDecision is PublishVerdict's unaudited sibling: the decision is
// graded against the configured truth only, so a wrong one has no causal
// poll to name (audit.OutcomeWrongUnattributed).
func PublishDecision(b *Bus, session string, trial int, decision, truth bool, polls int, slots int64) {
	if b == nil {
		return
	}
	outcome := audit.OutcomeCorrect
	if decision != truth {
		outcome = audit.OutcomeWrongUnattributed
	}
	b.Publish(Event{
		Kind: KindSessionVerdict, Session: session, Trial: trial, Poll: -1,
		Outcome: outcome.String(), Correct: decision == truth,
		Polls: polls, Slots: slots, CausalPoll: -1,
	})
	if decision == truth {
		return
	}
	b.Publish(Event{
		Kind: KindAnomaly, Session: session, Trial: trial, Poll: -1,
		Outcome: AnomalyWrongVerdict,
		Detail:  fmt.Sprintf("decision %v but configured truth %v", decision, truth),

		CausalPoll: -1,
	})
}

// PublishChainEvents drains a finished session's middleware chain onto
// the bus: one KindFault event per injected fault (Poll is the
// substrate-level attempt index of the injector's own log) and a
// KindRetryExhausted event when any poll spent its whole retry budget on
// silence.
func PublishChainEvents(b *Bus, session string, trial int, q query.Querier) {
	if b == nil {
		return
	}
	rq, inj := chainLayers(q)
	if inj != nil {
		for _, pf := range inj.Events() {
			b.Publish(Event{
				Kind: KindFault, Session: session, Trial: trial, Poll: pf.Poll,
				Detail: pf.String(),

				CausalPoll: -1,
			})
		}
	}
	if rq != nil {
		if n := rq.Exhausted(); n > 0 {
			b.Publish(Event{
				Kind: KindRetryExhausted, Session: session, Trial: trial, Poll: -1,
				Polls:  n,
				Detail: fmt.Sprintf("%d poll(s) silent after the full retry budget (%d retries total)", n, rq.Retries()),

				CausalPoll: -1,
			})
		}
	}
}

// ChainSlots walks q outermost-first for a virtual-time slot meter — the
// same discovery the trace span recorder does, so verdict events price
// sessions identically to spans. Substrates without a meter (the
// abstract fastsim channel) cost one slot per poll; fallbackPolls covers
// them.
func ChainSlots(q query.Querier, fallbackPolls int) int64 {
	for walk := q; walk != nil; {
		if sc, ok := walk.(interface{ Slots() int }); ok {
			return int64(sc.Slots())
		}
		w, ok := walk.(query.Wrapper)
		if !ok {
			break
		}
		walk = w.Unwrap()
	}
	return int64(fallbackPolls)
}

// chainLayers finds the outermost retry layer and fault injector in q's
// middleware chain (nil when absent).
func chainLayers(q query.Querier) (rq *query.Retry, inj *faults.Injector) {
	for walk := q; walk != nil; {
		if r, ok := walk.(*query.Retry); ok && rq == nil {
			rq = r
		}
		if j, ok := walk.(*faults.Injector); ok && inj == nil {
			inj = j
		}
		w, ok := walk.(query.Wrapper)
		if !ok {
			break
		}
		walk = w.Unwrap()
	}
	return rq, inj
}

// DescribeCause joins an audited causal poll to the injected fault that
// explains it: the retry layer renumbers polls (one audited poll spans
// several attempts), so the index maps through DownstreamPoll before the
// injector's event log is consulted. Empty when no injected fault
// touched the poll.
func DescribeCause(q query.Querier, causal int) string {
	if causal < 0 {
		return ""
	}
	rq, inj := chainLayers(q)
	if inj == nil {
		return ""
	}
	if rq != nil {
		causal = rq.DownstreamPoll(causal)
	}
	if cause := inj.Describe(causal); causal >= 0 && cause != "no injected fault" {
		return cause
	}
	return ""
}
