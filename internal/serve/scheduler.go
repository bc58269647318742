package serve

import (
	"container/heap"
	"sync/atomic"

	"tcast/internal/query"
)

// Field is one shared simulated medium: a virtual slot clock all its
// sessions' transmissions serialize on, owned by a single scheduler
// goroutine. That goroutine is the only code that ever runs a session:
// it steps each one as a coroutine from one park at the medium to the
// next, so the scheduler's decisions — and therefore every contention
// price — are a pure function of the inbox order and the admitted
// sessions' (virtual ready time, admission sequence) order.
type Field struct {
	pool  *Pool
	index int

	// inbox carries arrivals, open and close in submission order. Its
	// capacity is MaxActive+MaxQueue+2: unread arrivals never exceed the
	// field's in-flight bound, plus one open and one close, so senders
	// never block.
	inbox chan fieldMsg
	done  chan struct{} // closed when the scheduler loop exits

	// inflight counts queued+running sessions (admission bound); active
	// and queued split it for gauges; clock mirrors the scheduler's
	// virtual slot clock for stats snapshots.
	inflight atomic.Int64
	active   atomic.Int64
	queued   atomic.Int64
	clock    atomic.Int64
	served   atomic.Int64
	gated    atomic.Bool
}

// fieldMsgKind discriminates the scheduler's inbox.
type fieldMsgKind uint8

const (
	// msgArrival: Submit admitted a session onto this field.
	msgArrival fieldMsgKind = iota
	// msgOpen releases a gated field.
	msgOpen
	// msgClose asks the loop to exit once no sessions remain.
	msgClose
)

// fieldMsg is one message from the pool to a field's scheduler loop.
type fieldMsg struct {
	kind fieldMsgKind
	s    *Session
}

func newField(p *Pool, index int, hold bool) *Field {
	f := &Field{
		pool:  p,
		index: index,
		inbox: make(chan fieldMsg, p.cfg.MaxActive+p.cfg.MaxQueue+2),
		done:  make(chan struct{}),
	}
	f.gated.Store(hold)
	return f
}

// open releases a gated field; the atomic makes repeat calls no-ops, so
// at most one msgOpen is ever queued.
func (f *Field) open() {
	if f.gated.CompareAndSwap(true, false) {
		f.inbox <- fieldMsg{kind: msgOpen}
	}
}

// Clock returns the field's current virtual slot clock.
func (f *Field) Clock() int64 { return f.clock.Load() }

// Served returns the number of sessions the field has completed.
func (f *Field) Served() int64 { return f.served.Load() }

// Index returns the field's position in the pool.
func (f *Field) Index() int { return f.index }

// loop is the field's scheduler: a virtual-time event loop that steps
// sessions itself. It reads the inbox in FIFO order, admitting up to
// MaxActive sessions and keeping the rest in its own backlog; each
// admitted session is stepped at once to its first park at the current
// clock. Whenever the inbox is empty and the field is open, it grants the
// medium to the parked session with the lowest (readyAt, seq) key and
// steps that session through one poll, whose slot cost advances the
// clock. A finished session hands its medium slot to the backlog's head
// at the clock it finished on. No session code runs outside step, so
// contention pricing is independent of goroutine scheduling.
func (f *Field) loop() {
	defer close(f.done)
	var (
		clock   int64
		ready   waitQueue
		backlog []*Session
		gated   = f.gated.Load()
		closing bool
	)
	admit := func(s *Session) {
		f.active.Add(1)
		s.state.Store(int32(StateRunning))
		s.startSlot = clock
	}
	for {
		var s *Session
		if !gated && ready.Len() > 0 && len(f.inbox) == 0 {
			s = heap.Pop(&ready).(*Session)
			s.waited += clock - s.readyAt
		} else {
			if closing && f.active.Load() == 0 {
				return
			}
			switch m := <-f.inbox; m.kind {
			case msgArrival:
				if f.active.Load() < int64(f.pool.cfg.MaxActive) {
					s = m.s
					admit(s)
				} else {
					backlog = append(backlog, m.s)
					f.queued.Add(1)
				}
				f.pool.updateGauges()
			case msgOpen:
				gated = false
			case msgClose:
				closing = true
			}
		}
		for s != nil {
			cost, parked := s.step()
			clock += cost
			s.ownSlots += cost
			f.clock.Store(clock)
			if parked {
				s.readyAt = clock
				heap.Push(&ready, s)
				break
			}
			f.active.Add(-1)
			f.served.Add(1)
			s.finish(clock)
			s = nil
			if len(backlog) > 0 {
				s = backlog[0]
				backlog[0] = nil
				backlog = backlog[1:]
				f.queued.Add(-1)
				admit(s)
			}
			f.pool.updateGauges()
		}
	}
}

// step resumes s until it parks at the medium again or finishes. It
// returns the slots of the poll the session ran (0 on the first step,
// which only reaches the first park) and whether it parked. Only the
// field loop calls step: the loop and the session's goroutine pass one
// baton back and forth, so exactly one of them runs at a time.
func (s *Session) step() (cost int64, parked bool) {
	if s.baton == nil {
		s.baton = make(chan bool)
		go s.coroutine()
	}
	s.baton <- true
	parked = <-s.baton
	return s.lastCost, parked
}

// coroutine is the session's goroutine: it waits for its first step,
// runs the query (parking before every poll) and hands the baton back a
// last time with parked=false.
func (s *Session) coroutine() {
	<-s.baton
	s.runErr = s.execute()
	s.baton <- false
}

// park hands the baton back to the field loop and waits for the next
// step — the grant to transmit.
func (s *Session) park() {
	s.baton <- true
	<-s.baton
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
// downstream poll the session parks at the field's medium until the loop
// grants it, so concurrent initiators' transmissions serialize on one
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

// Query implements query.Querier: park until granted, then transmit.
func (m *mediumQuerier) Query(bin []int) query.Response {
	m.s.park()
	resp := m.inner.Query(bin)
	cost := int64(1)
	if m.meter != nil {
		now := m.meter.Slots()
		if d := int64(now - m.last); d > 0 {
			cost = d
		}
		m.last = now
	}
	m.s.lastCost = cost
	return resp
}

// Traits implements query.Querier.
func (m *mediumQuerier) Traits() query.Traits { return m.inner.Traits() }

// Unwrap implements query.Wrapper, so chain searches see through the
// medium.
func (m *mediumQuerier) Unwrap() query.Querier { return m.inner }
