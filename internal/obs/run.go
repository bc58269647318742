package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"tcast/internal/audit"
	"tcast/internal/metrics"
	"tcast/internal/trace"
)

// RunConfig is the run-output flag surface the batch cmds share: the
// plane's Config plus -audit, -trace, -metrics and -pprof. Open turns the
// parsed flags into the run's observers; Run.Close writes them out.
type RunConfig struct {
	Config
	// Audit grades every session against ground truth (-audit).
	Audit bool
	// TraceOut is the span-trace JSONL path (-trace).
	TraceOut string
	// MetricsOut is the registry dump path (-metrics): "-" is stdout, a
	// ".prom" suffix selects the Prometheus format.
	MetricsOut string
	// PprofDir receives the run's cpu/heap/goroutine/mutex/block
	// profiles (-pprof).
	PprofDir string
	// Addr, when set, serves NewMux there for the run's duration, with
	// runtime sampling into the registry. It forces the registry and the
	// plane on. No flag registers it: tcastfigs sets it from its own
	// -metrics-addr.
	Addr string
}

// RegisterFlags registers the run-output flags and the plane's flags on
// fs; what names the run in the help text ("sweep", "campaign", ...).
func (c *RunConfig) RegisterFlags(fs *flag.FlagSet, what string) {
	fs.BoolVar(&c.Audit, "audit", false, "grade every session against ground truth and print the audit summary")
	fs.StringVar(&c.TraceOut, "trace", "", "write a structured span trace (JSONL, virtual time) of the "+what+" to this file")
	fs.StringVar(&c.MetricsOut, "metrics", "", "dump the metrics of the "+what+" to this file at exit ('-' = stdout, .prom = Prometheus format)")
	fs.StringVar(&c.PprofDir, "pprof", "", "write cpu/heap/goroutine/mutex/block profiles into this directory")
	c.Config.RegisterFlags(fs)
}

// Run is one run's open observers. A nil handle is an output nobody
// asked for, so a run without output flags allocates none of them.
type Run struct {
	// Registry exists when -metrics is set, the plane is enabled or Addr
	// is served.
	Registry *metrics.Registry
	// Plane is the obs plane, nil when disabled.
	Plane *Plane
	// Trace is the span builder (-trace), its meta led by cmd.
	Trace *trace.Builder
	// Audit collects the graded sessions (-audit).
	Audit *audit.Collector

	cfg            RunConfig
	cmd            string
	stdout, stderr io.Writer
	stopProfiles   func() error
	srv            *metrics.Server
	stopSampler    func()
}

// Open creates the run's observers from the parsed flags: the registry,
// the plane (its log sink on stderr), the Addr server, the profiler, the
// trace builder with meta cmd=<cmd> followed by meta, and the audit
// collector. cmd also prefixes the run's own stderr notes.
func (c RunConfig) Open(cmd string, stdout, stderr io.Writer, meta ...trace.Attr) (*Run, error) {
	r := &Run{cfg: c, cmd: cmd, stdout: stdout, stderr: stderr}
	if c.MetricsOut != "" || c.Addr != "" || c.Enabled() {
		r.Registry = metrics.New()
	}
	// The /events and /slo endpoints need a bus even when no local sink is
	// configured, so a served run forces the plane on.
	var err error
	if r.Plane, err = c.Build(stderr, r.Registry, c.Addr != ""); err != nil {
		return nil, err
	}
	if c.Addr != "" {
		if r.srv, err = Serve(c.Addr, r.Registry, r.Plane); err != nil {
			return nil, err
		}
		fmt.Fprintln(stderr, cmd+": serving metrics on", r.srv.Addr())
		// Runtime attribution (goroutines, heap, GC) is sampled only while
		// live-serving, so file-dumped registries stay wall-clock-free.
		r.stopSampler = StartRuntimeSampler(r.Registry, 0)
	}
	if c.PprofDir != "" {
		if r.stopProfiles, err = metrics.StartProfiles(c.PprofDir); err != nil {
			r.stop()
			return nil, err
		}
	}
	if c.TraceOut != "" {
		r.Trace = trace.NewBuilder()
		r.Trace.SetMeta(append([]trace.Attr{trace.StringAttr("cmd", cmd)}, meta...)...)
	}
	if c.Audit {
		r.Audit = &audit.Collector{}
	}
	return r, nil
}

// Close writes the run's outputs in one fixed order: the audit summary
// on stdout, the metrics dump, the trace file, then the plane's summary
// on stderr. It then closes the plane and stops the profiler, the runtime
// sampler and the server. It returns the first failure; the stopping
// happens regardless.
func (r *Run) Close() error {
	err := r.write()
	r.stop()
	return err
}

func (r *Run) write() error {
	if r.Audit != nil {
		fmt.Fprint(r.stdout, r.Audit.Summary())
	}
	if r.cfg.MetricsOut != "" {
		if err := metrics.DumpToPath(r.Registry, r.cfg.MetricsOut); err != nil {
			return err
		}
	}
	if r.Trace != nil {
		if err := trace.WriteFile(r.cfg.TraceOut, r.Trace.Trace()); err != nil {
			return err
		}
	}
	if s := r.Plane.Summary(); s != "" {
		fmt.Fprint(r.stderr, s)
	}
	return r.Plane.Close()
}

// stop ends what Open started in the background. Its failures only
// lose diagnostics, so they are reported on stderr, not returned.
func (r *Run) stop() {
	if r.stopProfiles != nil {
		if err := r.stopProfiles(); err != nil {
			fmt.Fprintln(r.stderr, r.cmd+": pprof:", err)
		}
	}
	if r.stopSampler != nil {
		r.stopSampler()
	}
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := r.srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(r.stderr, r.cmd+": metrics server:", err)
		}
	}
}
