package obs

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"tcast/internal/metrics"
)

// MetricEvents counts published events in the registry, partitioned by a
// kind="..." label — the obs plane's own meta-observability.
const MetricEvents = "obs_events_total"

// Config is the obs plane's shared flag surface; every cmd registers the
// same set so the plane reads identically across tools.
type Config struct {
	// Log / LogJSON enable the slog text / JSON sink on stderr; LogLevel
	// filters it (debug shows per-poll and per-fault chatter).
	Log      bool
	LogJSON  bool
	LogLevel string
	// FlightDir enables the flight recorder, dumping FLIGHT_<n>.jsonl
	// anomaly exhibits into the directory; FlightSize is the ring
	// capacity.
	FlightDir  string
	FlightSize int
	// SLOSpec declares the health rules (see ParseRules), e.g.
	// "maxpolls=96,maxslots=288,minacc=0.99,window=1000".
	SLOSpec string
	// Sketch enables the sketch sink: constant-memory quantile summaries
	// of per-session poll/slot costs plus exemplar sessions, published on
	// /slo and as obs_session_* summary metrics.
	Sketch bool
}

// RegisterFlags registers the plane's flags on fs (the cmds pass
// flag.CommandLine).
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&c.Log, "log", false, "stream structured events (session verdicts, anomalies; polls at -log-level debug) to stderr as text")
	fs.BoolVar(&c.LogJSON, "log-json", false, "like -log but one JSON object per line")
	fs.StringVar(&c.LogLevel, "log-level", "info", "minimum event level for -log/-log-json: debug | info | warn | error")
	fs.StringVar(&c.FlightDir, "flight", "", "enable the flight recorder: dump FLIGHT_<n>.jsonl of recent events into this directory on every anomaly")
	fs.IntVar(&c.FlightSize, "flight-size", DefaultFlightSize, "flight-recorder ring capacity (events)")
	fs.StringVar(&c.SLOSpec, "slo", "", "SLO health rules evaluated on the live verdict stream, e.g. maxpolls=96,maxslots=288,minacc=0.99,window=1000")
	fs.BoolVar(&c.Sketch, "sketch", false, "summarize per-session poll/slot costs as constant-memory quantile sketches (on /slo, /metrics and the exit report)")
}

// Enabled reports whether any part of the plane was requested. Serving
// cmds should OR this with their -metrics-addr flag: the /events and
// /slo endpoints need a bus even when no local sink is on.
func (c Config) Enabled() bool {
	return c.Log || c.LogJSON || c.FlightDir != "" || c.SLOSpec != "" || c.Sketch
}

// Plane is one cmd's assembled observability plane. Nil is a valid
// disabled plane: every method no-ops and Bus() returns nil.
type Plane struct {
	bus      *Bus
	recorder *FlightRecorder
	slo      *SLO
	sketch   *SketchSink
	dropped  *metrics.Counter
}

// Build assembles the plane from the parsed flags: the bus, the
// configured sinks (log on w, flight recorder, SLO engine), and — when
// reg is non-nil — a sink folding per-kind event counts into the
// registry. A fully-disabled config returns (nil, nil) unless force is
// set (a cmd serving /events needs the bus regardless).
func (c Config) Build(w io.Writer, reg *metrics.Registry, force bool) (*Plane, error) {
	if !c.Enabled() && !force {
		return nil, nil
	}
	p := &Plane{bus: NewBus()}
	if c.Log || c.LogJSON {
		min, ok := ParseLevel(c.LogLevel)
		if !ok {
			return nil, fmt.Errorf("obs: unknown -log-level %q (want debug|info|warn|error)", c.LogLevel)
		}
		p.bus.Subscribe(NewLogSink(w, c.LogJSON, min))
	}
	if c.FlightDir != "" {
		p.recorder = NewFlightRecorder(c.FlightSize, c.FlightDir)
		p.bus.Subscribe(p.recorder)
	}
	if c.SLOSpec != "" {
		rules, window, err := ParseRules(c.SLOSpec)
		if err != nil {
			return nil, err
		}
		p.slo = NewSLO(rules, window, p.bus)
		p.bus.Subscribe(p.slo)
	}
	if c.Sketch {
		p.sketch = NewSketchSink(reg)
		p.bus.Subscribe(p.sketch)
	}
	if reg != nil {
		p.dropped = reg.Counter(MetricEventsDropped)
	} else {
		p.dropped = &metrics.Counter{}
	}
	if reg != nil {
		counters := countersFor(reg)
		p.bus.Subscribe(SinkFunc(func(e Event) {
			if e.Kind >= 0 && int(e.Kind) < NumKinds {
				counters[e.Kind].Inc()
			}
		}))
	}
	return p, nil
}

// countersFor resolves the per-kind event counters up front, so the sink
// path is a single atomic increment and the partition's zero-valued
// series still appear in dumps.
func countersFor(reg *metrics.Registry) [NumKinds]*metrics.Counter {
	var out [NumKinds]*metrics.Counter
	for k := Kind(0); int(k) < NumKinds; k++ {
		out[k] = reg.Counter(MetricEvents, "kind", k.String())
	}
	return out
}

// Bus returns the plane's bus; nil on a nil plane, which every publish
// helper accepts.
func (p *Plane) Bus() *Bus {
	if p == nil {
		return nil
	}
	return p.bus
}

// SLO returns the health engine, nil when no rules were declared.
func (p *Plane) SLO() *SLO {
	if p == nil {
		return nil
	}
	return p.slo
}

// Recorder returns the flight recorder, nil when disabled.
func (p *Plane) Recorder() *FlightRecorder {
	if p == nil {
		return nil
	}
	return p.recorder
}

// Sketches returns the sketch sink, nil when disabled.
func (p *Plane) Sketches() *SketchSink {
	if p == nil {
		return nil
	}
	return p.sketch
}

// EventsDropped returns the SSE drop counter, nil on a nil plane. Every
// event a slow /events client misses increments it.
func (p *Plane) EventsDropped() *metrics.Counter {
	if p == nil {
		return nil
	}
	return p.dropped
}

// Summary renders the plane's exit report: flight dumps written and SLO
// rule states. Empty when there is nothing to say.
func (p *Plane) Summary() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	if p.recorder != nil {
		if dumps := p.recorder.Dumps(); len(dumps) > 0 {
			fmt.Fprintf(&b, "flight recorder: %d anomaly dump(s)\n", len(dumps))
			for _, d := range dumps {
				fmt.Fprintf(&b, "  %s\n", d)
			}
		}
	}
	if p.sketch != nil {
		b.WriteString(p.sketch.Summary())
	}
	if p.slo != nil {
		rep := p.slo.Report()
		state := "PASS"
		if !rep.Healthy {
			state = "FAIL"
		}
		fmt.Fprintf(&b, "slo: %s over %d verdicts\n", state, rep.Verdicts)
		for _, r := range rep.Rules {
			mark := "pass"
			if !r.Healthy {
				mark = "FAIL"
			}
			fmt.Fprintf(&b, "  %-14s threshold=%.4g budget=%.4g violations=%d/%d (lifetime %d) burn=%.3g  %s\n",
				r.Rule, r.Threshold, r.Budget, r.Violations, r.Seen, r.TotalViolations, r.BurnRate, mark)
		}
	}
	return b.String()
}

// Close finalizes the plane and returns its first deferred failure (a
// flight dump that could not be written). Event publishing stays safe
// after Close; there is nothing to tear down on the bus.
func (p *Plane) Close() error {
	if p == nil || p.recorder == nil {
		return nil
	}
	return p.recorder.Err()
}
