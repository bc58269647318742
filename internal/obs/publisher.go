package obs

import "tcast/internal/query"

// Publisher is the poll observer that streams one KindPoll event per
// group poll onto the bus. It sits last on a trial's tap, after the
// trace observer, and consumes no randomness, so published runs stay
// byte-identical to bare ones. Configure it only when a bus is — the
// experiment harness and cmds skip it entirely otherwise, keeping the
// pooled hot path allocation-free.
type Publisher struct {
	bus     *Bus
	session string
	trial   int
}

// NewPollPublisher returns a publisher labeling every event with the
// session name and trial index. Like the other observers, one Publisher
// serves one session.
func NewPollPublisher(bus *Bus, session string, trial int) *Publisher {
	return &Publisher{bus: bus, session: session, trial: trial}
}

// NewPublisher returns q behind a tap carrying a NewPollPublisher.
func NewPublisher(q query.Querier, bus *Bus, session string, trial int) *query.Tap {
	return query.NewTap(q, NewPollPublisher(bus, session, trial))
}

// ObservePoll implements query.Observer: publish the poll's outcome.
func (p *Publisher) ObservePoll(poll *query.Poll) {
	p.bus.Publish(Event{
		Kind:    KindPoll,
		Session: p.session,
		Trial:   p.trial,
		Poll:    poll.Index,
		Bin:     len(poll.Bin),
		Outcome: poll.Response.Kind.String(),

		CausalPoll: -1,
	})
}

// ObserveRound implements query.Observer; rounds are not published.
func (p *Publisher) ObserveRound(int) {}
