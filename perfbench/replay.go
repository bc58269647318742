package main

import (
	"fmt"
	"time"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/serve"
)

// Span names. A replayed session is one "replay" root span with the
// stack's construction ("build"), the algorithm run ("core.run") and the
// audit verdict ("audit.finish") beneath it; every querier call inside
// core.run is a span named after the layer it enters.
const (
	spanReplay      = "replay"
	spanBuild       = "build"
	spanCore        = "core.run"
	spanAuditFinish = "audit.finish"
	spanObs         = "obs"
	spanAudit       = "audit"
	spanMetrics     = "metrics"
	spanRetry       = "retry"
	spanFaults      = "faults"
	spanFastsim     = "fastsim"
)

// outcome is what a session's verdict and cost ledger must reproduce.
type outcome struct {
	Decision     bool
	Polls        int
	Rounds       int
	SessionSlots int64
}

func servedOutcome(r *serve.Result) outcome {
	return outcome{Decision: r.Decision, Polls: r.Polls, Rounds: r.Rounds, SessionSlots: r.SessionSlots}
}

// replayed is one offline replay of a served session.
type replayed struct {
	outcome
	truth             bool
	attempts, retries int // retry layer's downstream polls and re-polls
	exhausted         int
	faultEvents       int
	compute           time.Duration // whole replay, construction included
}

// algorithmFor maps a wire algorithm name onto the core algorithm tcastd
// runs for it.
func algorithmFor(name string, ch *fastsim.Channel) (core.Algorithm, error) {
	switch name {
	case "2tbins":
		return core.TwoTBins{}, nil
	case "exp":
		return core.ExpIncrease{}, nil
	case "abns-t":
		return core.ABNS{P0: 1}, nil
	case "abns-2t":
		return core.ABNS{P0: 2}, nil
	case "probabns":
		return core.ProbABNS{}, nil
	case "oracle":
		return core.Oracle{Truth: ch}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

// replayEnv is what a replayed stack attaches to: the registry and bus of
// the daemon it mirrors (either may be nil), and the span recorder (nil
// for an untimed replay).
type replayEnv struct {
	reg   *metrics.Registry
	bus   *obs.Bus
	spans *recorder
}

// replay rebuilds a served session's querier stack from its Spec with
// the public constructors, in tcastd's order and with its random-stream
// derivation, and runs it. The one layer left out is the daemon's
// scheduler hook, which forwards polls unchanged and draws no randomness,
// so the outcome must equal the served one. With env.spans set, a timing
// querier is spliced between every pair of layers.
func replay(sp serve.Spec, label string, env replayEnv) (replayed, error) {
	var out replayed
	rec := env.spans
	t0 := time.Now()
	root := rec.begin(spanReplay)
	build := rec.begin(spanBuild)
	cfg := fastsim.DefaultConfig()
	if sp.Model == "2+" {
		cfg = fastsim.TwoPlusConfig()
	}
	fcfg, err := faults.ParseSpec(sp.Faults)
	if err != nil {
		return out, err
	}
	var src rng.Source
	rng.New(sp.Seed).SplitInto(uint64(sp.Trial), &src)
	ch, _ := fastsim.RandomPositives(sp.N, sp.X, cfg, src.Split(1))
	alg, err := algorithmFor(sp.Alg, ch)
	if err != nil {
		return out, err
	}
	var q query.Querier = rec.splice(spanFastsim, ch)
	var inj *faults.Injector
	if fcfg.Active() {
		inj = faults.New(q, fcfg, sp.N, src.Split(9))
		q = rec.splice(spanFaults, inj)
	}
	q = query.WithRetry(q, query.RetryPolicy{MaxRetries: sp.Retries, Backoff: sp.Backoff})
	rq, _ := q.(*query.Retry)
	if rq != nil {
		q = rec.splice(spanRetry, q)
	}
	if env.reg != nil {
		q = rec.splice(spanMetrics, metrics.Wrap(q, env.reg))
	}
	var aud *audit.Auditor
	if sp.Audit {
		aud, err = audit.New(q, audit.Config{N: sp.N, T: sp.T, Metrics: env.reg})
		if err != nil {
			return out, err
		}
		q = rec.splice(spanAudit, aud)
	}
	if env.bus != nil {
		q = rec.splice(spanObs, obs.NewPublisher(q, env.bus, label, sp.Trial))
	}
	rec.end(build)

	run := rec.begin(spanCore)
	res, err := alg.Run(q, sp.N, sp.T, src.Split(2))
	rec.end(run)
	if err != nil {
		return out, err
	}
	out.outcome = outcome{Decision: res.Decision, Polls: res.Queries, Rounds: res.Rounds, SessionSlots: obs.ChainSlots(q, res.Queries)}
	out.truth = sp.X >= sp.T
	if aud != nil {
		fin := rec.begin(spanAuditFinish)
		aud.Finish(res.Decision)
		rec.end(fin)
	}
	metrics.FinishSession(q)
	if rq != nil {
		out.attempts, out.retries, out.exhausted = rq.Attempts(), rq.Retries(), rq.Exhausted()
	}
	if inj != nil {
		out.faultEvents = len(inj.Events())
	}
	rec.end(root)
	out.compute = time.Since(t0)
	return out, nil
}
