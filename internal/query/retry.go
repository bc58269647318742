package query

// RetryPolicy is the initiator-side recovery knob for lossy or faulted
// substrates: when a group poll reads as silence, re-poll the same bin up
// to MaxRetries times, idling Backoff slots before each retry. Silence is
// the only retryable outcome — it is the one a lost reply forges — and a
// single non-Empty answer ends the poll, so on a sound substrate the
// policy never changes a decision, only the cost.
type RetryPolicy struct {
	// MaxRetries bounds re-polls per group query; zero disables the
	// policy entirely.
	MaxRetries int
	// Backoff is the number of idle slots the initiator waits before
	// each retry, priced into the virtual-time ledger.
	Backoff int
}

// Active reports whether the policy retries at all.
func (p RetryPolicy) Active() bool { return p.MaxRetries > 0 }

// Retry is the middleware implementing RetryPolicy. It sits directly
// above the substrate (or the fault injector), below the observation
// tap, so metrics/audit/trace see one poll per algorithm query — the
// final response — while the virtual-time cost of every attempt and
// backoff wait stays honest through Slots. Retry consumes no randomness.
type Retry struct {
	q      Querier
	policy RetryPolicy
	// meter is the innermost (substrate) slot counter, discovered at
	// construction by walking the chain all the way down and keeping the
	// deepest non-Retry counter (nil when the substrate prices polls
	// implicitly at one slot each). Binding the first counter found would
	// grab an intermediate layer — another Retry, or any middleware
	// forwarding the substrate's Slots() — and misprice stacked policies:
	// a forwarded meter hides the backoff of retry layers beneath it.
	meter SlotMeter
	// below lists the Retry layers between this one and the substrate,
	// outermost first; their backoff waits (and, with no substrate meter,
	// the deepest layer's attempt count) complete the slot ledger.
	below []*Retry

	attempts  int // polls issued downstream, including first attempts
	retries   int // attempts beyond the first
	backoff   int // idle slots spent waiting before retries
	exhausted int // polls still silent after the full retry budget
	cum       []int
}

// WithRetry wraps q with the policy; an inactive policy returns q
// unchanged, so zero-policy stacks are byte-identical to bare ones.
func WithRetry(q Querier, p RetryPolicy) Querier {
	if !p.Active() {
		return q
	}
	r := &Retry{q: q, policy: p}
	Walk(q, func(l Querier) bool {
		if rr, ok := l.(*Retry); ok {
			r.below = append(r.below, rr)
		} else if sc, ok := l.(SlotMeter); ok {
			// Keep walking: a deeper counter supersedes this one, so the
			// binding lands on the substrate's own meter.
			r.meter = sc
		}
		return true
	})
	return r
}

// Query implements Querier: forward the poll, re-polling on silence up to
// the policy's budget.
func (r *Retry) Query(bin []int) Response {
	r.attempts++
	resp := r.q.Query(bin)
	for i := 0; i < r.policy.MaxRetries && resp.Kind == Empty; i++ {
		r.backoff += r.policy.Backoff
		r.attempts++
		r.retries++
		resp = r.q.Query(bin)
	}
	if resp.Kind == Empty {
		r.exhausted++
	}
	r.cum = append(r.cum, r.attempts)
	return resp
}

// DownstreamPoll maps a poll index as seen above this layer to the
// downstream index of that poll's final attempt. Layers below number
// polls per attempt (the fault injector's event log does), so a causal
// poll found by the audit layer joins to its substrate-level event
// through this mapping. Out-of-range indices return -1.
func (r *Retry) DownstreamPoll(i int) int {
	if i < 0 || i >= len(r.cum) {
		return -1
	}
	return r.cum[i] - 1
}

// Traits implements Querier.
func (r *Retry) Traits() Traits { return r.q.Traits() }

// Unwrap implements Wrapper.
func (r *Retry) Unwrap() Querier { return r.q }

// Slots is the virtual-time ledger a tap meters polls by:
// the substrate's own slot count (or one slot per attempt when it has no
// meter) plus every backoff wait of every retry layer in the chain. With
// no substrate meter the deepest retry layer's attempt count is the true
// downstream poll count — this layer's own attempts undercount when a
// layer beneath it re-polls. A tap above the chain meters by the
// outermost retry, so retried polls are priced at their full cost
// instead of the one-poll default.
func (r *Retry) Slots() int {
	slots := r.backoff
	for _, rr := range r.below {
		slots += rr.backoff
	}
	if r.meter != nil {
		return r.meter.Slots() + slots
	}
	if n := len(r.below); n > 0 {
		return r.below[n-1].attempts + slots
	}
	return r.attempts + slots
}

// Attempts returns the polls issued downstream, first attempts included.
func (r *Retry) Attempts() int { return r.attempts }

// Retries returns the attempts beyond each poll's first.
func (r *Retry) Retries() int { return r.retries }

// BackoffSlots returns the idle slots spent waiting before retries.
func (r *Retry) BackoffSlots() int { return r.backoff }

// Exhausted returns the polls that stayed silent after the full retry
// budget — the ones the policy could not recover.
func (r *Retry) Exhausted() int { return r.exhausted }
