// Package serve is the long-running threshold-query service behind the
// tcastd daemon: it multiplexes many concurrent initiators over a pool of
// shared simulated fields, each field a single RCD medium on which the
// sessions' polls contend.
//
// The paper runs one initiator at a time; the serving scenario — many
// initiators sharing one singlehop medium, every transmission serialized
// on the same virtual slot clock — is the contention setting the MAC
// conflict-resolution literature treats as fundamental. The scheduler
// here keeps that pricing honest and *deterministic*: grants are ordered
// by (virtual ready time, admission sequence) and a grant is only issued
// when every admitted session is parked at the medium, so the same seeds
// and arrival order produce byte-identical verdicts and slot ledgers at
// any GOMAXPROCS. A session's own algorithm behaviour is never perturbed
// by contention (the medium wrapper forwards polls unchanged and consumes
// no randomness), so a single admitted session's verdict and cost are
// byte-identical to the same seed run through tcastsim.
//
// The rest of the stack is reused wholesale: sessions run the core
// algorithms through query.Querier, optionally over the faults injector
// and retry middleware and observed by the audit grader, and every lifecycle
// event lands on the obs plane's bus, so /metrics, /healthz, /slo and
// /events are the service's ops story for free.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tcast/internal/metrics"
	"tcast/internal/obs"
)

// Config sizes the pool and its admission control.
type Config struct {
	// Fields is the number of shared-medium fields; sessions land on one
	// field each (round-robin unless the request pins one) and contend
	// only with sessions of the same field.
	Fields int
	// MaxActive bounds the sessions concurrently scheduled on one field's
	// medium.
	MaxActive int
	// MaxQueue bounds the sessions waiting per field for a scheduler slot
	// beyond MaxActive; past it submissions are shed with an
	// OverloadError (HTTP 429 + Retry-After) instead of queueing without
	// bound.
	MaxQueue int
	// MaxPerClient bounds one client's in-flight (queued or running)
	// sessions across the pool.
	MaxPerClient int
	// MaxHistory bounds the completed sessions kept for GET /query/{id};
	// the oldest finished sessions are evicted past it.
	MaxHistory int
	// MaxN bounds a request's field size — admission-time protection
	// against a single query asking for an absurd simulation.
	MaxN int
	// Defaults fills unset request fields (N, T, X, Alg, Model).
	Defaults Spec
	// Hold starts every field gated: sessions are admitted and park at
	// the medium but no grants are issued until Open is called. Tests and
	// benchmarks use it to fix the arrival order before scheduling
	// starts.
	Hold bool
	// Registry (optional) receives the service's serve_* metrics.
	Registry *metrics.Registry
	// Bus (optional) receives session lifecycle events — the obs plane's
	// SLO engine, log sinks and /events stream hang off it.
	Bus *obs.Bus
}

// withDefaults fills the zero-valued knobs.
func (c Config) withDefaults() Config {
	if c.Fields <= 0 {
		c.Fields = 1
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 128
	}
	if c.MaxPerClient <= 0 {
		c.MaxPerClient = 32
	}
	if c.MaxHistory <= 0 {
		c.MaxHistory = 4096
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 20
	}
	d := &c.Defaults
	if d.N == 0 {
		d.N = 128
	}
	if d.T == 0 {
		d.T = 16
	}
	if d.X == 0 {
		d.X = 16
	}
	if d.Alg == "" {
		d.Alg = "2tbins"
	}
	if d.Model == "" {
		d.Model = "1+"
	}
	return c
}

// ErrDraining rejects submissions while the pool drains for shutdown.
var ErrDraining = errors.New("serve: draining, not admitting new sessions")

// OverloadError sheds a submission that found a bounded queue full. The
// HTTP layer renders it as 429 with a Retry-After header.
type OverloadError struct {
	Reason     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %s", e.Reason, e.RetryAfter)
}

// Pool is the serving core: fields, admission state and the session
// directory.
type Pool struct {
	cfg Config

	fields []*Field

	shed       map[string]*metrics.Counter
	activeG    *metrics.Gauge
	queuedG    *metrics.Gauge
	latencyH   *metrics.Histogram
	sessionCtr func(outcome string) // increments serve_sessions_total{outcome}

	draining atomic.Bool
	wg       sync.WaitGroup

	mu        sync.Mutex
	seq       uint64
	next      int // round-robin field cursor
	perClient map[string]int
	byID      map[string]*Session
	order     []*Session
}

// NewPool builds the pool and starts one scheduler goroutine per field.
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:       cfg,
		perClient: make(map[string]int),
		byID:      make(map[string]*Session),
	}
	if reg := cfg.Registry; reg != nil {
		p.shed = map[string]*metrics.Counter{
			"queue":    reg.Counter("serve_shed_total", "reason", "queue"),
			"client":   reg.Counter("serve_shed_total", "reason", "client"),
			"draining": reg.Counter("serve_shed_total", "reason", "draining"),
		}
		p.activeG = reg.Gauge("serve_active_sessions")
		p.queuedG = reg.Gauge("serve_queued_sessions")
		p.latencyH = reg.Histogram("serve_session_wall_ns",
			metrics.ExponentialBuckets(1e3, 4, 12))
		p.sessionCtr = func(outcome string) {
			reg.Counter("serve_sessions_total", "outcome", outcome).Inc()
		}
	}
	for i := 0; i < cfg.Fields; i++ {
		f := newField(p, i, cfg.MaxActive, cfg.Hold)
		p.fields = append(p.fields, f)
		go f.loop()
	}
	return p
}

// Open releases every gated field (no-op when Hold was not set, or after
// the first call).
func (p *Pool) Open() {
	for _, f := range p.fields {
		f.open()
	}
}

// Fields returns the pool's fields, for stats rendering.
func (p *Pool) Fields() []*Field { return p.fields }

// Session looks up a submitted session by id.
func (p *Pool) Session(id string) (*Session, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.byID[id]
	return s, ok
}

// shedCount bumps the shed counter for reason when a registry is wired.
func (p *Pool) shedCount(reason string) {
	if c, ok := p.shed[reason]; ok {
		c.Inc()
	}
}

// Submit validates and admits one query session, starting it
// asynchronously. The returned session exposes Done() for completion and
// Status() for the wire shape. Shedding returns *OverloadError (bounded
// queue or per-client limit full) or ErrDraining.
func (p *Pool) Submit(spec Spec, client string) (*Session, error) {
	if p.draining.Load() {
		p.shedCount("draining")
		return nil, ErrDraining
	}
	spec, err := p.resolveSpec(spec)
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	if p.cfg.MaxPerClient > 0 && p.perClient[client] >= p.cfg.MaxPerClient {
		p.mu.Unlock()
		p.shedCount("client")
		return nil, &OverloadError{Reason: fmt.Sprintf("client %q at its %d-session limit", client, p.cfg.MaxPerClient), RetryAfter: time.Second}
	}
	var f *Field
	if spec.Field >= 0 {
		if spec.Field >= len(p.fields) {
			p.mu.Unlock()
			return nil, fmt.Errorf("serve: field %d outside pool of %d", spec.Field, len(p.fields))
		}
		f = p.fields[spec.Field]
	} else {
		f = p.fields[p.next%len(p.fields)]
		p.next++
		spec.Field = f.index
	}
	if int(f.inflight.Load()) >= p.cfg.MaxActive+p.cfg.MaxQueue {
		p.mu.Unlock()
		p.shedCount("queue")
		return nil, &OverloadError{Reason: fmt.Sprintf("field %d queue full (%d active + %d queued)", f.index, p.cfg.MaxActive, p.cfg.MaxQueue), RetryAfter: time.Second}
	}
	p.seq++
	s := &Session{
		ID:        fmt.Sprintf("q%06d", p.seq),
		Client:    client,
		Spec:      spec,
		seq:       p.seq,
		field:     f,
		grant:     make(chan int64, 1),
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
	s.state.Store(int32(StateQueued))
	p.perClient[client]++
	f.inflight.Add(1)
	p.byID[s.ID] = s
	p.order = append(p.order, s)
	p.evictLocked()
	p.mu.Unlock()

	p.wg.Add(1)
	go s.run()
	return s, nil
}

// evictLocked drops the oldest finished sessions beyond MaxHistory.
// In-flight sessions are never evicted; the in-flight population is
// bounded by the admission caps, so the directory stays bounded too.
func (p *Pool) evictLocked() {
	for len(p.order) > p.cfg.MaxHistory {
		evicted := false
		for i, s := range p.order {
			if s.State().Terminal() {
				delete(p.byID, s.ID)
				p.order = append(p.order[:i], p.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// release returns a finished session's admission slot.
func (p *Pool) release(s *Session) {
	p.mu.Lock()
	if p.perClient[s.Client] <= 1 {
		delete(p.perClient, s.Client)
	} else {
		p.perClient[s.Client]--
	}
	p.mu.Unlock()
	s.field.inflight.Add(-1)
}

// Drain stops admission, waits for every in-flight session to finish
// (bounded by ctx), then stops the field schedulers. After a successful
// Drain the pool accepts no further submissions.
func (p *Pool) Drain(ctx context.Context) error {
	p.draining.Store(true)
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	for _, f := range p.fields {
		f.close()
	}
	return nil
}

// InFlight reports the pool-wide queued+running session count.
func (p *Pool) InFlight() int {
	total := int64(0)
	for _, f := range p.fields {
		total += f.inflight.Load()
	}
	return int(total)
}

// updateGauges refreshes the queue-depth gauges after a state change.
func (p *Pool) updateGauges() {
	if p.activeG == nil {
		return
	}
	var active, queued int64
	for _, f := range p.fields {
		active += f.active.Load()
		queued += f.queued.Load()
	}
	p.activeG.Set(float64(active))
	p.queuedG.Set(float64(queued))
}
