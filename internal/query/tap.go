package query

// SlotMeter is implemented by layers that meter their own virtual-time
// cost (pollcast.Session charges 2 slots per pollcast query and 3 per
// backcast query; Retry adds its backoff waits). Chains without one cost
// one slot per poll.
type SlotMeter interface {
	Slots() int
}

// Poll is the one record a Tap hands its observers per poll: what an RCD
// initiator can observe of it. The tap reuses one record, so observers
// must copy what they keep past the call — Bin aliases the algorithm's
// buffer.
type Poll struct {
	// Index is the poll's 0-based position among the polls the tap saw.
	Index int
	// Bin is the polled group and Response what the initiator observed.
	Bin      []int
	Response Response
	// Slots is the poll's virtual-time cost: the slot meter's delta
	// across the poll, or 1 without a meter.
	Slots int64
}

// Observer consumes a Tap's poll records and the algorithms' round
// boundaries. Observers never alter bins or responses and consume no
// randomness, so an observed run is bit-identical to a bare one.
type Observer interface {
	ObservePoll(p *Poll)
	ObserveRound(round int)
}

// Tap is the one per-poll observation layer: it forwards each poll to the
// querier below, reads the slot meter bound at Reset once, and fans one
// reused Poll record out to its observers in order. Round boundaries fan
// out the same way and then continue down the chain, so taps stacked with
// other layers between them each see every round. A Tap serves one
// session at a time and is not safe for concurrent use.
type Tap struct {
	q     Querier
	meter SlotMeter
	last  int
	obs   []Observer
	rec   Poll
}

// NewTap returns q behind a tap carrying obs, metered by the outermost
// slot meter in q's chain.
func NewTap(q Querier, obs ...Observer) *Tap {
	meter, _ := Find[SlotMeter](q)
	t := new(Tap)
	t.Reset(q, meter, obs)
	return t
}

// Reset re-targets the tap at q with the given meter (nil prices every
// poll at one slot) and observers, in fan-out order. The tap keeps obs
// without copying it, so a pooled caller can reuse one slice.
func (t *Tap) Reset(q Querier, meter SlotMeter, obs []Observer) {
	*t = Tap{q: q, meter: meter, obs: obs}
	if meter != nil {
		t.last = meter.Slots()
	}
}

// Query implements Querier: forward the poll, then hand its record to
// every observer.
func (t *Tap) Query(bin []int) Response {
	resp := t.q.Query(bin)
	slots := int64(1)
	if t.meter != nil {
		now := t.meter.Slots()
		slots = int64(now - t.last)
		t.last = now
	}
	t.rec.Bin, t.rec.Response, t.rec.Slots = bin, resp, slots
	for _, o := range t.obs {
		o.ObservePoll(&t.rec)
	}
	t.rec.Index++
	return resp
}

// Traits implements Querier.
func (t *Tap) Traits() Traits { return t.q.Traits() }

// Unwrap implements Wrapper.
func (t *Tap) Unwrap() Querier { return t.q }

// TraceRound implements the algorithms' round hook: every observer sees
// the boundary, then the querier below does if it listens for rounds.
func (t *Tap) TraceRound(round int) {
	for _, o := range t.obs {
		o.ObserveRound(round)
	}
	if rt, ok := t.q.(interface{ TraceRound(round int) }); ok {
		rt.TraceRound(round)
	}
}

// Observers returns the tap's observers in fan-out order.
func (t *Tap) Observers() []Observer { return t.obs }

// Walk visits q and then each layer below it, outermost first, until
// visit returns false or a layer wraps nothing. It is the one walk of a
// querier chain; everything that searches a chain goes through it.
func Walk(q Querier, visit func(Querier) bool) {
	for q != nil && visit(q) {
		w, ok := q.(Wrapper)
		if !ok {
			return
		}
		q = w.Unwrap()
	}
}

// Find returns the outermost layer of q's chain that is a T, also
// looking at the observers of every tap on the way (after the tap
// itself).
func Find[T any](q Querier) (T, bool) {
	var found T
	ok := false
	Walk(q, func(l Querier) bool {
		if found, ok = l.(T); ok {
			return false
		}
		if tap, is := l.(interface{ Observers() []Observer }); is {
			for _, o := range tap.Observers() {
				if found, ok = o.(T); ok {
					return false
				}
			}
		}
		return true
	})
	return found, ok
}
