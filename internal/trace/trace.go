// Package trace instruments threshold-query sessions: a Recorder observes
// any query.Tap, logs every group poll and its response, and can render
// the session as a human-readable timeline or replay it against a
// decision procedure. Because it sees only poll records, it works
// identically on the abstract channel, the packet radio and the mote
// testbed.
package trace

import (
	"fmt"
	"strings"

	"tcast/internal/query"
)

// Event is one recorded group poll.
type Event struct {
	// Index is the poll's 0-based position in the session.
	Index int
	// Bin is the polled group (copied; safe to retain).
	Bin []int
	// Response is what the initiator observed.
	Response query.Response
}

// Recorder is the poll-log observer: it records every poll record a
// query.Tap hands it. Not safe for concurrent use.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder; put it on a tap
// (query.NewTap(q, rec)) to record q's polls.
func NewRecorder() *Recorder { return &Recorder{} }

// ObservePoll implements query.Observer.
func (r *Recorder) ObservePoll(p *query.Poll) {
	r.events = append(r.events, Event{
		Index:    len(r.events),
		Bin:      append([]int(nil), p.Bin...),
		Response: p.Response,
	})
}

// ObserveRound implements query.Observer; the poll log has no rounds.
func (r *Recorder) ObserveRound(int) {}

// Events returns the recorded polls in order.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded polls.
func (r *Recorder) Len() int { return len(r.events) }

// Reset clears the recording.
func (r *Recorder) Reset() { r.events = nil }

// Summary aggregates a recording. The per-kind counts come from the shared
// query.KindCounts partition (promoted fields Empty, Active, Decoded,
// Collisions), so trace and metrics classify polls identically.
type Summary struct {
	Polls int
	query.KindCounts
	// NodesPolled is the total of bin sizes — the number of node-poll
	// pairs, a proxy for listener energy.
	NodesPolled int
}

// Summarize computes aggregate counts for the recording.
func (r *Recorder) Summarize() Summary {
	var s Summary
	s.Polls = len(r.events)
	for _, e := range r.events {
		s.NodesPolled += len(e.Bin)
		s.KindCounts.Observe(e.Response.Kind)
	}
	return s
}

// Render formats the session as one line per poll:
//
//	#3  |bin|=8  {1, 5, ...}  -> active
func (r *Recorder) Render() string {
	var b strings.Builder
	for _, e := range r.events {
		fmt.Fprintf(&b, "#%-3d |bin|=%-3d %s -> %s", e.Index, len(e.Bin), renderBin(e.Bin), e.Response.Kind)
		if e.Response.Kind == query.Decoded {
			fmt.Fprintf(&b, " (node %d)", e.Response.DecodedID)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func renderBin(bin []int) string {
	const maxShown = 8
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range bin {
		if i == maxShown {
			fmt.Fprintf(&b, ", …+%d", len(bin)-maxShown)
			break
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte('}')
	return b.String()
}

// Replayer replays a recorded session as a query.Querier: poll i must ask
// exactly the bin recorded at position i, and receives the recorded
// response. It verifies determinism claims — re-running an algorithm with
// the same RNG stream against the replay must reproduce the session.
//
// Error handling: once a replay diverges or runs past the recording, the
// *first* error is kept and every subsequent Query keeps returning Empty
// responses (a replay has no honest answer after divergence, and Empty at
// least drives well-behaved algorithms to terminate). Callers must
// therefore never treat a completed session as proof of a clean replay on
// its own — check MustDone (or Err plus Done) afterwards.
type Replayer struct {
	events []Event
	pos    int
	traits query.Traits
	err    error
}

// NewReplayer builds a Replayer over a recording with the given traits.
func NewReplayer(events []Event, traits query.Traits) *Replayer {
	return &Replayer{events: events, traits: traits}
}

// Query implements query.Querier. After the first divergence or
// exhaustion it is a sink: the original error is retained and Empty is
// returned for every further poll.
func (p *Replayer) Query(bin []int) query.Response {
	if p.err != nil {
		return query.Response{Kind: query.Empty}
	}
	if p.pos >= len(p.events) {
		p.err = fmt.Errorf("trace: replay exhausted after %d polls", len(p.events))
		return query.Response{Kind: query.Empty}
	}
	want := p.events[p.pos]
	if !sameBin(bin, want.Bin) {
		p.err = fmt.Errorf("trace: replay diverged at poll %d: got bin %v, recorded %v", p.pos, bin, want.Bin)
		return query.Response{Kind: query.Empty}
	}
	p.pos++
	return want.Response
}

// Traits implements query.Querier.
func (p *Replayer) Traits() query.Traits { return p.traits }

// Err returns the first divergence/exhaustion error, or nil.
func (p *Replayer) Err() error { return p.err }

// Done reports whether every recorded poll was replayed.
func (p *Replayer) Done() bool { return p.pos == len(p.events) }

// MustDone returns nil only for a clean, complete replay: no divergence
// or exhaustion occurred and every recorded poll was consumed. It is the
// check that keeps a diverged replay from masquerading as a successful
// session.
func (p *Replayer) MustDone() error {
	if p.err != nil {
		return p.err
	}
	if p.pos != len(p.events) {
		return fmt.Errorf("trace: replay stopped after %d of %d recorded polls", p.pos, len(p.events))
	}
	return nil
}

func sameBin(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
