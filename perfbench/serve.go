package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcast/internal/audit"
	"tcast/internal/serve"
)

// setupLaunches is how many times each run times its program's set-up;
// the run reports the median, and a serve run serves from the last
// launch.
const setupLaunches = 25

// serveWorkload is a traffic mix against tcastd.
type serveWorkload struct {
	// open selects the open loop (requests on a Poisson schedule); a
	// closed loop sends each client's next request when its last returns.
	open bool
	// requests returns the open-loop schedule for a run of length d, or
	// one closed-loop pass.
	requests func(seed uint64, d time.Duration) []request
	// history is tcastd's -max-history, 0 for its default of 4096.
	// Closed-loop clients get their verdicts in the POST response and
	// need no history; a short one keeps the daemon from holding
	// thousands of large-N sessions it will never be asked for.
	history int
}

// daemonFlags are the pinned tcastd flags: the defaults, but for the
// session history.
func (w serveWorkload) daemonFlags() []string {
	if w.history == 0 {
		return nil
	}
	return []string{"-max-history", strconv.Itoa(w.history)}
}

// served is the outcome of driving one daemon: every request's record,
// the measurement window, and the daemon-side readings.
type served struct {
	reqs       []request
	recs       []sent        // record k is request reqs[k%len(reqs)]
	window     time.Duration // the timed stretches' total length
	cpu        time.Duration // CPU over the timed stretches
	violations float64       // tcast_audit_violations_total
}

// req returns the request record k was sent for.
func (s *served) req(k int) request { return s.reqs[k%len(s.reqs)] }

// segment is how much of an open-loop schedule runs between verdict
// collections. tcastd keeps its last -max-history (4096) sessions, so
// verdicts must be fetched before 4096 more arrive; between segments the
// schedule pauses, and neither the pause nor the fetches are timed.
const segment = 2 * time.Second

// drive sends the workload's requests to base and collects every
// open-loop verdict. cpu, when set, is read at both ends of each timed stretch,
// which ends once the daemon has finished every session it was sent.
func (w serveWorkload) drive(c *http.Client, base string, seed uint64, d time.Duration, cpu func() (time.Duration, error)) (*served, error) {
	s := &served{reqs: w.requests(seed, d)}
	timed := func(f func() error) error {
		var c0, c1 time.Duration
		var err error
		if cpu != nil {
			if c0, err = cpu(); err != nil {
				return err
			}
		}
		if err := f(); err != nil {
			return err
		}
		if cpu != nil {
			if c1, err = cpu(); err != nil {
				return err
			}
		}
		s.cpu += c1 - c0
		return nil
	}
	if !w.open {
		var start time.Time
		err := timed(func() error {
			start, s.recs = closedLoop(c, base, s.reqs, d)
			return nil
		})
		s.window = latest(s.recs, false).Sub(start)
		return s, err
	}
	s.recs = make([]sent, len(s.reqs))
	for from := 0; from < len(s.reqs); {
		offset := s.reqs[from].due / segment * segment
		to := from
		for to < len(s.reqs) && s.reqs[to].due < offset+segment {
			to++
		}
		var start time.Time
		err := timed(func() error {
			start = openLoop(c, base, s.reqs, from, to, offset, s.recs)
			return settle(c, base)
		})
		if err != nil {
			return nil, err
		}
		if err := collect(c, base, s.recs[from:to]); err != nil {
			return nil, err
		}
		s.window += latest(s.recs[from:to], true).Sub(start)
		from = to
	}
	return s, nil
}

// latest is the latest time the client held a verdict of recs.
func latest(recs []sent, open bool) time.Time {
	var t time.Time
	for k := range recs {
		if v := verdictTime(&recs[k], open); v.After(t) {
			t = v
		}
	}
	return t
}

// warmUp sends unmeasured traffic first, so the daemon's heap, session
// history and connections are at their steady state when timing starts:
// in an open loop a differently seeded list long enough to fill the
// session history, sent back to back; otherwise the first requests of
// the pass.
func (w serveWorkload) warmUp(c *http.Client, base string, seed uint64) error {
	var pass []request
	if w.open {
		pass = w.requests(^seed, warmUpSpan)
	} else {
		pass = w.requests(seed, 0)
		pass = pass[:min(len(pass), 2*conns())]
	}
	_, recs := closedLoop(c, base, pass, 0)
	for _, r := range recs {
		if !r.ok() {
			return fmt.Errorf("warm-up request %d failed: status %d, %v", r.idx, r.code, r.err)
		}
	}
	return nil
}

// verdictTime is when the client could hold request k's verdict.
func verdictTime(r *sent, open bool) time.Time {
	if !r.ok() || r.status.Result == nil {
		return r.acked
	}
	if open {
		return r.due.Add(openLoopLatency(r.due, r.sent, r.acked, elapsed(r.status)))
	}
	return r.acked
}

func elapsed(st serve.Status) time.Duration {
	return time.Duration(st.ElapsedMs * float64(time.Millisecond))
}

// settle waits until no session is in flight on any field.
func settle(c *http.Client, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		hr, err := http.NewRequest(http.MethodGet, base+"/fields", nil)
		if err != nil {
			return err
		}
		var fields []serve.FieldStatus
		if _, err := do(c, hr, &fields); err != nil {
			return err
		}
		busy := int64(0)
		for _, f := range fields {
			busy += f.InFlight
		}
		if busy == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d session(s) still in flight after 60s", busy)
		}
		time.Sleep(time.Millisecond)
	}
}

// counters fetches the daemon's text metrics dump.
func counters(c *http.Client, base string) (string, error) {
	resp, err := c.Get(base + "/metrics/text")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// sumFamily adds the values of the "name value" and "name{...} value"
// lines of family in a metrics text dump.
func sumFamily(dump, family string) float64 {
	total := 0.0
	for _, line := range strings.Split(dump, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || (name != family && !strings.HasPrefix(name, family+"{")) {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(val, &v); err == nil {
			total += v
		}
	}
	return total
}

// runServe is an untraced serve run against the built tcastd.
func runServe(w serveWorkload, o options) (*result, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < setupLaunches; i++ {
		dd, took, err := startDaemon(o.bin, o.work, w.daemonFlags())
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupLaunches-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()
	c := newClient()
	if err := w.warmUp(c, d.base, o.seed); err != nil {
		return nil, err
	}
	got, err := w.drive(c, d.base, o.seed, o.seconds, d.cpu)
	if err != nil {
		return nil, err
	}
	dump, err := counters(c, d.base)
	if err != nil {
		return nil, err
	}
	got.violations = sumFamily(dump, audit.MetricAuditViolations)
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	d.stop()

	// The daemon is gone: the untimed replays may use every core.
	runtime.GOMAXPROCS(runtime.NumCPU())
	ck := &checker{}
	e := evaluate(got, w.open, ck)
	if _, err := e.replayAll(got, replayEnv{}, 0, ck); err != nil {
		return nil, err
	}
	res := &result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	put := res.put
	put("cpu_ms_per_query", ms(got.cpu)/float64(e.completed))
	put("slots_per_query", e.slots/float64(e.completed))
	put("peak_rss_mb", rss/(1<<20))
	put("setup_s", median(setups))
	res.verdict(ck)
	return res, nil
}

// evaluation is the per-request accounting of one serve run.
type evaluation struct {
	attempted, failed, completed, wrong int
	latMs                               []float64
	latWindow                           []int // latMs[i]'s one-second window of the schedule
	slots                               float64
	polls, rounds                       float64
	waitedSlots, spanSlots              float64
	sessionMs                           []float64
}

// evaluate counts outcomes and latencies and checks each verdict: the
// daemon must have served the spec that was sent, and on a lossless
// field the decision must be right.
func evaluate(s *served, open bool, ck *checker) *evaluation {
	e := &evaluation{}
	lossless := true
	for k := range s.recs {
		r := &s.recs[k]
		req := s.req(k)
		lossless = lossless && req.lossless()
		e.attempted++
		res := r.status.Result
		if !r.ok() || res == nil {
			e.failed++
			continue
		}
		sp := r.status.Spec
		ck.expect(sp.N == req.N && sp.T == req.T && sp.X == req.X && sp.Alg == req.Alg && sp.Model == req.Model && sp.Seed == req.Seed && sp.Audit == req.Audit,
			"request %d: daemon served %+v for %+v", k, sp, req)
		truth := req.X >= req.T
		ck.expect(res.Truth == truth, "request %d: daemon truth %v, want %v", k, res.Truth, truth)
		if res.Decision != truth {
			e.wrong++
		}
		e.completed++
		e.latMs = append(e.latMs, ms(verdictTime(r, open).Sub(r.due)))
		if open {
			e.latWindow = append(e.latWindow, int(req.due/time.Second))
		} else {
			e.latWindow = append(e.latWindow, 0)
		}
		e.slots += float64(res.SessionSlots)
		e.polls += float64(res.Polls)
		e.rounds += float64(res.Rounds)
		e.waitedSlots += float64(res.WaitedSlots)
		e.spanSlots += float64(res.SpanSlots)
		e.sessionMs = append(e.sessionMs, r.status.ElapsedMs)
	}
	ck.expect(e.completed > 0, "no request completed")
	if lossless {
		ck.expect(e.wrong == 0, "%d wrong verdict(s) on a lossless workload", e.wrong)
		ck.expect(s.violations == 0, "%v audit violation(s) on a lossless workload", s.violations)
	}
	return e
}

// latency is the p-th latency percentile. In an open loop it is taken in
// each one-second window of the schedule, and the median over windows is
// reported, so one stall of the shared machine moves one window, not
// the run; every window holds about a thousand requests, a hundred of
// them beyond its p90.
func (e *evaluation) latency(p float64) float64 {
	return windowedPercentile(e.latMs, e.latWindow, p)
}

// replayStats sums what the untimed replays saw.
type replayStats struct {
	n                                    int
	attempts, retries, exhausted, events int
	compute, timed                       map[int]time.Duration // by pass index
}

// replayAll replays every distinct completed request offline and checks
// that its outcome equals the served one; in a closed loop every pass
// must also have served the same outcome as the first. Untimed replays
// with no registry or bus to share run on every core. With env.spans set, every timeEvery-th distinct
// request is replayed once more, alone and timed, into env.spans.
func (e *evaluation) replayAll(s *served, env replayEnv, timeEvery int, ck *checker) (*replayStats, error) {
	var todo []int // records to replay, one per distinct request
	first := map[int]int{}
	for k := range s.recs {
		r := &s.recs[k]
		if !r.ok() || r.status.Result == nil {
			continue
		}
		i := k % len(s.reqs)
		if f, ok := first[i]; ok {
			got, want := servedOutcome(r.status.Result), servedOutcome(s.recs[f].status.Result)
			ck.expect(got == want, "request %d: pass served %+v, an earlier pass %+v", k, got, want)
			continue
		}
		first[i] = k
		todo = append(todo, k)
	}
	label := func(k int) string {
		st := s.recs[k].status
		return fmt.Sprintf("%s/%s/seed=%d", st.ID, st.Spec.Alg, st.Spec.Seed)
	}
	untimed := replayEnv{reg: env.reg, bus: env.bus}
	workers := 1
	if env.reg == nil && env.bus == nil {
		workers = runtime.GOMAXPROCS(0)
	}
	reps := make([]replayed, len(todo))
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(todo); j = int(next.Add(1) - 1) {
				reps[j], errs[j] = replay(s.recs[todo[j]].status.Spec, label(todo[j]), untimed)
			}
		}()
	}
	wg.Wait()

	st := &replayStats{compute: map[int]time.Duration{}, timed: map[int]time.Duration{}}
	for j, k := range todo {
		if errs[j] != nil {
			return nil, fmt.Errorf("replay request %d: %w", k, errs[j])
		}
		rep, want := reps[j], servedOutcome(s.recs[k].status.Result)
		ck.expect(rep.outcome == want, "request %d: replay %+v, served %+v", k, rep.outcome, want)
		i := k % len(s.reqs)
		st.n++
		st.compute[i] = rep.compute
		st.attempts += rep.attempts
		st.retries += rep.retries
		st.exhausted += rep.exhausted
		st.events += rep.faultEvents
		if env.spans == nil || i%timeEvery != 0 {
			continue
		}
		env.spans.req = int32(k)
		trep, err := replay(s.recs[k].status.Spec, label(k), env)
		if err != nil {
			return nil, fmt.Errorf("timed replay of request %d: %w", k, err)
		}
		ck.expect(trep.outcome == want, "request %d: timed replay %+v, served %+v", k, trep.outcome, want)
		st.timed[i] = trep.compute
	}
	return st, nil
}
