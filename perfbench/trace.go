package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"tcast/internal/audit"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/serve"
)

// maxTimedReplays bounds how many distinct sessions a traced run
// replays with spans, which bounds the spans kept in memory. The plain
// replays stay sequential in a traced run, so their times are clean
// baselines for serve.wait_ms and trace.overhead.
const maxTimedReplays = 2000

// handled is one request's pass through the daemon's handler.
type handled struct {
	req        int
	post       bool
	start, end time.Time
}

// timedHandler times the daemon's mux and counts non-2xx answers.
type timedHandler struct {
	next   http.Handler
	mu     sync.Mutex
	calls  []handled
	non2xx int
}

func newTimedHandler(next http.Handler) *timedHandler { return &timedHandler{next: next} }

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// reset forgets the calls timed so far.
func (h *timedHandler) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls, h.non2xx = nil, 0
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	h.next.ServeHTTP(sw, r)
	end := time.Now()
	idx, err := strconv.Atoi(r.Header.Get(reqHeader))
	h.mu.Lock()
	defer h.mu.Unlock()
	if sw.code/100 != 2 {
		h.non2xx++
	}
	if err == nil {
		h.calls = append(h.calls, handled{req: idx, post: r.Method == http.MethodPost, start: start, end: end})
	}
}

// runtimeReading is the Go runtime's allocation and GC totals.
type runtimeReading struct{ alloc, gcs uint64 }

func readRuntime() runtimeReading {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeReading{alloc: m.TotalAlloc, gcs: uint64(m.NumGC)}
}

// traceServe is a traced serve run: the same requests against the
// in-process daemon, then every distinct served session replayed through
// a timed copy of its querier stack.
func traceServe(w serveWorkload, o options) (*result, error) {
	// The daemon gets the machine's cores, as tcastd would.
	runtime.GOMAXPROCS(runtime.NumCPU())
	d, err := startInProcess(w.history)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop() // error path: the run has already failed
		}
	}()
	c := newClient()
	if err := w.warmUp(c, d.base(), o.seed); err != nil {
		return nil, err
	}
	d.handler.reset()
	before, err := counters(c, d.base())
	if err != nil {
		return nil, err
	}
	queued := d.reg.Gauge("serve_queued_sessions")
	stopSampling := make(chan struct{})
	sampled := make(chan float64)
	go func() {
		peak := 0.0
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, queued.Value())
			case <-stopSampling:
				sampled <- peak
				return
			}
		}
	}()
	rt0 := readRuntime()
	got, err := w.drive(c, d.base(), o.seed, o.seconds, selfCPU)
	close(stopSampling)
	queuedMax := <-sampled
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	if !w.open {
		// Only the newest sessions are still in the daemon's history.
		if err := collect(c, d.base(), got.recs[max(0, len(got.recs)-w.history/2):]); err != nil {
			return nil, err
		}
	}
	var statusRTT []float64
	for _, r := range got.recs {
		if r.ok() && r.statusRTT > 0 {
			statusRTT = append(statusRTT, ms(r.statusRTT))
		}
	}
	after, err := counters(c, d.base())
	if err != nil {
		return nil, err
	}
	got.violations = sumFamily(after, audit.MetricAuditViolations)
	grew := func(family string) float64 { return sumFamily(after, family) - sumFamily(before, family) }
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}

	ck := &checker{}
	e := evaluate(got, w.open, ck)

	// Replay into a plane of its own, assembled like the daemon's, so the
	// replayed obs and metrics layers do the daemon's work per poll.
	rreg := metrics.New()
	rplane, err := obs.Config{}.Build(io.Discard, rreg, true)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	every := max(1, (len(got.reqs)+maxTimedReplays-1)/maxTimedReplays)
	st, err := e.replayAll(got, replayEnv{reg: rreg, bus: rplane.Bus(), spans: rec}, every, ck)
	if err != nil {
		return nil, err
	}
	if err := rplane.Close(); err != nil {
		return nil, err
	}
	var traced, bare time.Duration
	var waitMs []float64
	for i, tc := range st.timed {
		traced += tc
		bare += st.compute[i]
	}
	for k := range got.recs {
		r := &got.recs[k]
		if c, ok := st.compute[k%len(got.reqs)]; ok && r.ok() && r.status.Result != nil {
			waitMs = append(waitMs, r.status.ElapsedMs-ms(c))
		}
	}

	// The HTTP spans: the client's round trip, and the handler inside it.
	var postRTT, handlerUs, transportUs []float64
	postSpan := map[int]int32{}
	for k := range got.recs {
		r := &got.recs[k]
		if r.sent.IsZero() {
			continue
		}
		postRTT = append(postRTT, ms(r.acked.Sub(r.sent)))
		postSpan[k] = rec.add(int32(k), -1, "http.post", r.sent, r.acked)
	}
	for _, h := range d.handler.calls {
		if !h.post {
			rec.add(int32(h.req), -1, "http.handler", h.start, h.end)
			continue
		}
		parent, ok := postSpan[h.req]
		if !ok {
			parent = -1
		}
		rec.add(int32(h.req), parent, "http.handler", h.start, h.end)
		handlerUs = append(handlerUs, float64(h.end.Sub(h.start))/1e3)
		if ok {
			r := &got.recs[h.req]
			transportUs = append(transportUs, float64(r.acked.Sub(r.sent)-h.end.Sub(h.start))/1e3)
		}
	}
	self, err := selfTimes(rec.names, rec.spans, spanCore)
	ck.expect(err == nil, "span self times: %v", err)
	if err := rec.write(o); err != nil {
		return nil, err
	}

	n := float64(e.completed)
	timedN := float64(len(st.timed))
	audited := 0.0
	for _, s := range rec.spans {
		if rec.names[s.name] == spanAuditFinish {
			audited++
		}
	}
	var late []float64
	if w.open {
		for k := range got.recs {
			if r := &got.recs[k]; !r.sent.IsZero() {
				late = append(late, ms(r.sent.Sub(r.due)))
			}
		}
	}
	res := &result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	put := res.put
	put("http.post_rtt_ms", median(postRTT))
	put("http.handler_us", median(handlerUs))
	put("http.transport_us", median(transportUs))
	put("http.status_rtt_ms", median(statusRTT))
	put("http.non2xx", float64(d.handler.non2xx))
	put("serve.session_ms.p50", percentile(e.sessionMs, 50))
	put("serve.session_ms.p99", percentile(e.sessionMs, 99))
	put("serve.wait_ms.p50", percentile(waitMs, 50))
	put("serve.wait_ms.p99", percentile(waitMs, 99))
	put("serve.waited_slots_frac", e.waitedSlots/e.spanSlots)
	put("serve.queued_max", queuedMax)
	put("serve.shed", grew("serve_shed_total"))
	put("serve.cores_used", got.cpu.Seconds()/got.window.Seconds())
	put("serve.wrong_frac", float64(e.wrong)/n)
	put("obs.publisher_ns_per_poll", self[spanObs].perSpanNs())
	put("obs.events_per_query", grew(obs.MetricEvents)/n)
	put("obs.dropped", grew(obs.MetricEventsDropped))
	put("metrics.wrap_ns_per_poll", self[spanMetrics].perSpanNs())
	put("audit.us_per_query", divOr0(float64(self[spanAudit].self+self[spanAuditFinish].self)/1e3, audited))
	put("audit.violations", got.violations)
	put("retry.us_per_query", float64(self[spanRetry].self)/1e3/timedN)
	put("retry.retry_frac", divOr0(float64(st.retries), float64(st.attempts)))
	put("retry.exhausted_per_query", float64(st.exhausted)/float64(st.n))
	put("faults.ms_per_query", float64(self[spanFaults].self)/1e6/timedN)
	put("faults.ns_per_poll", self[spanFaults].perSpanNs())
	put("faults.events_per_query", float64(st.events)/float64(st.n))
	put("core.us_per_query", float64(self[spanCore].self)/1e3/timedN)
	put("core.polls_per_query", e.polls/n)
	put("core.rounds_per_query", e.rounds/n)
	put("fastsim.ns_per_poll", self[spanFastsim].perSpanNs())
	put("runtime.alloc_kb_per_query", float64(rt1.alloc-rt0.alloc)/1024/n)
	put("runtime.gc_per_1k_queries", float64(rt1.gcs-rt0.gcs)*1000/n)
	put("loadgen.p50_ms", e.latency(50))
	put("loadgen.p90_ms", e.latency(90))
	put("loadgen.qps", n/got.window.Seconds())
	if w.open {
		put("loadgen.late_p99_ms", percentile(late, 99))
	} else {
		put("loadgen.late_p99_ms", 0)
	}
	put("trace.overhead", traced.Seconds()/bare.Seconds())
	res.verdict(ck)
	return res, nil
}

// perSpanNs is the mean self time per span, 0 for a layer with no spans.
func (l layerTime) perSpanNs() float64 { return divOr0(float64(l.self), float64(l.count)) }

func divOr0(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() (time.Duration, error) { return procCPU(os.Getpid()) }

// inProcess is the traced run's daemon: tcastd's serving stack assembled
// in this process exactly as cmd/tcastd assembles it, behind a timing
// handler.
type inProcess struct {
	reg     *metrics.Registry
	plane   *obs.Plane
	pool    *serve.Pool
	handler *timedHandler
	srv     *metrics.Server
}

func startInProcess(history int) (*inProcess, error) {
	reg := metrics.New()
	plane, err := obs.Config{}.Build(io.Discard, reg, true)
	if err != nil {
		return nil, err
	}
	if history == 0 {
		history = 4096
	}
	// tcastd's flag defaults, and the workload's history.
	pool := serve.NewPool(serve.Config{
		Fields:       1,
		MaxActive:    64,
		MaxQueue:     128,
		MaxPerClient: 32,
		MaxHistory:   history,
		MaxN:         1 << 20,
		Defaults:     serve.Spec{N: 128, T: 16, X: 16, Alg: "2tbins", Model: "1+"},
		Registry:     reg,
		Bus:          plane.Bus(),
	})
	mux := obs.NewMux(reg, plane)
	serve.Register(mux, pool)
	h := newTimedHandler(mux)
	srv, err := metrics.StartServer("127.0.0.1:0", h)
	if err != nil {
		return nil, err
	}
	return &inProcess{reg: reg, plane: plane, pool: pool, handler: h, srv: srv}, nil
}

func (p *inProcess) base() string { return "http://" + p.srv.Addr() }

func (p *inProcess) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(p.pool.Drain(ctx), p.srv.Shutdown(ctx), p.plane.Close())
}
