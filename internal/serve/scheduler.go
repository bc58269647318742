package serve

import (
	"container/heap"
	"sync/atomic"

	"tcast/internal/query"
)

// Field is one shared simulated medium: a virtual slot clock all its
// sessions' transmissions serialize on, owned by a single scheduler
// goroutine. Session goroutines interact with it only through the events
// channel and their grant channel, so the scheduler's decisions — and
// therefore every contention price — are a pure function of the admitted
// sessions' (virtual ready time, admission sequence) order.
type Field struct {
	pool  *Pool
	index int

	events chan schedEvent
	tokens chan struct{} // MaxActive scheduler slots; excess sessions queue here
	done   chan struct{} // closed when the scheduler loop exits

	// inflight counts queued+running sessions (admission bound); active
	// and queued split it for gauges; clock mirrors the scheduler's
	// virtual slot clock for stats snapshots.
	inflight atomic.Int64
	active   atomic.Int64
	queued   atomic.Int64
	clock    atomic.Int64
	served   atomic.Int64
	parked   atomic.Int64
	gated    atomic.Bool
}

// schedEventKind discriminates the scheduler's inbox.
type schedEventKind uint8

const (
	// evArrive: a session acquired a scheduler slot and its goroutine is
	// running toward its first poll.
	evArrive schedEventKind = iota
	// evPark: a session wants the medium for its next poll; cost carries
	// the virtual slots of the poll it just finished (0 before the
	// first).
	evPark
	// evDone: a session finished; cost carries its final poll's slots.
	evDone
	// evOpen releases a gated field.
	evOpen
	// evClose asks the loop to exit once no sessions remain.
	evClose
)

// schedEvent is one message from a session (or the pool) to a field's
// scheduler loop.
type schedEvent struct {
	kind schedEventKind
	s    *Session
	cost int64
}

func newField(p *Pool, index, maxActive int, hold bool) *Field {
	f := &Field{
		pool:   p,
		index:  index,
		events: make(chan schedEvent),
		tokens: make(chan struct{}, maxActive),
		done:   make(chan struct{}),
	}
	for i := 0; i < maxActive; i++ {
		f.tokens <- struct{}{}
	}
	if hold {
		f.gated.Store(true)
	}
	return f
}

// gated is only read by the scheduler loop; the atomic lets open() be
// called idempotently from outside without racing the loop's read of the
// initial value.
func (f *Field) open() {
	if f.gated.CompareAndSwap(true, false) {
		select {
		case f.events <- schedEvent{kind: evOpen}:
		case <-f.done:
		}
	}
}

func (f *Field) close() {
	select {
	case f.events <- schedEvent{kind: evClose}:
		<-f.done
	case <-f.done:
	}
}

// Clock returns the field's current virtual slot clock.
func (f *Field) Clock() int64 { return f.clock.Load() }

// Served returns the number of sessions the field has completed.
func (f *Field) Served() int64 { return f.served.Load() }

// Index returns the field's position in the pool.
func (f *Field) Index() int { return f.index }

// Parked returns the number of sessions currently waiting at the medium
// for a grant. Tests on a held field use it to fix the arrival order:
// once every submitted session is parked, Open starts scheduling from a
// known state.
func (f *Field) Parked() int64 { return f.parked.Load() }

// loop is the field's scheduler: a barrier-stepped virtual-time event
// loop. It collects events until every admitted session is parked at the
// medium (running == 0), then grants the transmission to the waiting
// session with the lowest (readyAt, seq) key, waits for that session to
// park again (carrying the poll's slot cost, which advances the clock)
// or finish, and repeats. The barrier is what makes contention pricing
// independent of goroutine scheduling: no grant decision is ever taken
// while a session that could still request the medium is running.
func (f *Field) loop() {
	defer close(f.done)
	var (
		clock   int64
		running int
		waiting waitQueue
		closing bool
	)
	gated := f.gated.Load()
	for {
		// Collect events until a grant is possible and allowed.
		for running > 0 || waiting.Len() == 0 || gated {
			if closing && running == 0 && waiting.Len() == 0 {
				return
			}
			ev := <-f.events
			switch ev.kind {
			case evArrive:
				ev.s.readyAt = clock
				ev.s.startSlot = clock
				running++
			case evPark:
				clock += ev.cost
				ev.s.ownSlots += ev.cost
				ev.s.readyAt = clock
				running--
				heap.Push(&waiting, ev.s)
				f.parked.Store(int64(waiting.Len()))
			case evDone:
				clock += ev.cost
				ev.s.ownSlots += ev.cost
				running--
				f.served.Add(1)
				f.clock.Store(clock)
				ev.s.finish(clock)
			case evOpen:
				gated = false
			case evClose:
				closing = true
			}
			f.clock.Store(clock)
		}
		s := heap.Pop(&waiting).(*Session)
		f.parked.Store(int64(waiting.Len()))
		s.waited += clock - s.readyAt
		running++
		s.grant <- clock
	}
}

// waitQueue orders parked sessions by (virtual ready time, admission
// sequence) — earliest ready transmits first, ties broken by arrival
// order so earlier admissions never starve behind later ones.
type waitQueue []*Session

func (q waitQueue) Len() int { return len(q) }
func (q waitQueue) Less(i, j int) bool {
	if q[i].readyAt != q[j].readyAt {
		return q[i].readyAt < q[j].readyAt
	}
	return q[i].seq < q[j].seq
}
func (q waitQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *waitQueue) Push(x any)   { *q = append(*q, x.(*Session)) }
func (q *waitQueue) Pop() any {
	old := *q
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return s
}

// mediumQuerier is the scheduler's query.Querier middleware: before each
// downstream poll the session parks at the field's medium and waits for
// its grant, so concurrent initiators' transmissions serialize on one
// virtual slot clock. It forwards bins and responses unchanged and
// consumes no randomness — a session's verdict is identical with or
// without contention; only its slot ledger (waiting time, span) differs.
type mediumQuerier struct {
	inner query.Querier
	s     *Session
	// meter is the outermost slot meter below this wrapper (nil on the
	// abstract fastsim channel); its per-poll delta prices the medium
	// occupancy, one slot per poll otherwise.
	meter query.SlotMeter
	last  int
}

// newMediumQuerier wraps inner, discovering its slot meter.
func newMediumQuerier(inner query.Querier, s *Session) *mediumQuerier {
	m := &mediumQuerier{inner: inner, s: s}
	if meter, ok := query.Find[query.SlotMeter](inner); ok {
		m.meter, m.last = meter, meter.Slots()
	}
	return m
}

// Query implements query.Querier: park, wait for the grant, transmit.
func (m *mediumQuerier) Query(bin []int) query.Response {
	s := m.s
	s.field.events <- schedEvent{kind: evPark, s: s, cost: s.lastCost}
	<-s.grant
	resp := m.inner.Query(bin)
	cost := int64(1)
	if m.meter != nil {
		now := m.meter.Slots()
		if d := int64(now - m.last); d > 0 {
			cost = d
		}
		m.last = now
	}
	s.lastCost = cost
	return resp
}

// Traits implements query.Querier.
func (m *mediumQuerier) Traits() query.Traits { return m.inner.Traits() }

// Unwrap implements query.Wrapper, so chain searches see through the
// medium.
func (m *mediumQuerier) Unwrap() query.Querier { return m.inner }
