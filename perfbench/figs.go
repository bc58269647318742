package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcast/internal/serve"
)

// figIDs are the experiments sweep-figs regenerates, at paper-default
// trial counts.
var figIDs = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "tab-err", "abl-capture", "abl-variants"}

// heavyFigs are the four figures that take longest at paper defaults;
// the traced run reports each one's regeneration time.
var heavyFigs = []string{"fig1", "fig9", "fig2", "abl-variants"}

// committedSeed is the seed the committed results/ tables were made with.
const committedSeed = 2011

// figRun is one tcastfigs process.
type figRun struct {
	wall, cpu time.Duration
	rssBytes  float64
}

// tcastfigs runs the built tcastfigs with args and reports its wall
// time, CPU time and peak resident set.
func tcastfigs(bin string, args ...string) (figRun, error) {
	cmd := exec.Command(filepath.Join(bin, "tcastfigs"), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	run := figRun{wall: time.Since(start)}
	if err != nil {
		return run, fmt.Errorf("tcastfigs %s: %w: %s", strings.Join(args, " "), err, stderr.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		run.rssBytes = float64(ru.Maxrss) * 1024 // kB on Linux
	}
	return run, nil
}

// sweep is what a sweep-figs run measured.
type sweep struct {
	setupTimes []float64
	figMs      map[string][]float64 // per figure, one entry per sweep
	wall, cpu  time.Duration        // summed over the timed invocations
	sweeps     int
	rssBytes   float64
	trials     float64 // experiment_trials_total of one sweep
	polls      float64 // tcast_session_polls sum of one sweep
	sessions   float64 // tcast_session_polls count of one sweep
	attempted  int
}

// runSweep regenerates every figure, one tcastfigs process per figure,
// in whole sweeps until the run has lasted d. It then checks the tables:
// every sweep must match a one-worker rerun (which also dumps the trial
// and poll counters), and at the committed seed the committed tables.
func runSweep(o options, ck *checker) (*sweep, error) {
	s := &sweep{figMs: map[string][]float64{}}
	if err := os.RemoveAll(filepath.Join(o.work, "figs")); err != nil {
		return nil, err
	}
	for i := 0; i < setupLaunches; i++ {
		r, err := tcastfigs(o.bin, "-list")
		if err != nil {
			return nil, err
		}
		s.setupTimes = append(s.setupTimes, r.wall.Seconds())
	}
	seed := strconv.FormatUint(o.seed, 10)
	start := time.Now()
	for s.sweeps == 0 || time.Since(start) < o.seconds {
		dir := filepath.Join(o.work, "figs", fmt.Sprintf("sweep%d", s.sweeps))
		for _, id := range figIDs {
			s.attempted++
			r, err := tcastfigs(o.bin, "-fig", id, "-seed", seed, "-out", dir)
			if err != nil {
				return nil, err
			}
			s.figMs[id] = append(s.figMs[id], ms(r.wall))
			s.wall += r.wall
			s.cpu += r.cpu
			s.rssBytes = max(s.rssBytes, r.rssBytes)
		}
		s.sweeps++
	}
	check := filepath.Join(o.work, "figs", "check")
	metricsPath := filepath.Join(o.work, "figs", "check-metrics.txt")
	s.attempted++
	if _, err := tcastfigs(o.bin, "-fig", strings.Join(figIDs, ","), "-seed", seed, "-workers", "1", "-out", check, "-metrics", metricsPath); err != nil {
		return nil, err
	}
	for _, id := range figIDs {
		want, err := os.ReadFile(filepath.Join(check, id+".txt"))
		if err != nil {
			return nil, err
		}
		if o.seed == committedSeed {
			committed, err := os.ReadFile(filepath.Join("results", id+".txt"))
			if err != nil {
				return nil, err
			}
			ck.expect(bytes.Equal(want, committed), "%s: table differs from results/%s.txt", id, id)
		}
		for i := 0; i < s.sweeps; i++ {
			got, err := os.ReadFile(filepath.Join(o.work, "figs", fmt.Sprintf("sweep%d", i), id+".txt"))
			if err != nil {
				return nil, err
			}
			ck.expect(bytes.Equal(got, want), "%s: sweep %d differs from the one-worker rerun", id, i)
		}
	}
	dump, err := os.ReadFile(metricsPath)
	if err != nil {
		return nil, err
	}
	s.trials = sumFamily(string(dump), "experiment_trials_total")
	s.sessions, s.polls, err = histogramTotals(string(dump), "tcast_session_polls")
	if err != nil {
		return nil, err
	}
	ck.expect(s.trials > 0 && s.sessions > 0, "tcastfigs metrics: %v trials, %v sessions", s.trials, s.sessions)
	return s, nil
}

// histogramTotals reads a histogram's "name count=C sum=S ..." line from
// a metrics text dump.
func histogramTotals(dump, name string) (count, sum float64, err error) {
	for _, line := range strings.Split(dump, "\n") {
		rest, ok := strings.CutPrefix(line, name+" count=")
		if !ok {
			continue
		}
		if _, err := fmt.Sscanf(rest, "%g sum=%g", &count, &sum); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		return count, sum, nil
	}
	return 0, 0, fmt.Errorf("no %s histogram in the metrics dump", name)
}

// figLatencies lists every timed figure regeneration, in ms.
func (s *sweep) figLatencies() []float64 {
	var out []float64
	for _, v := range s.figMs {
		out = append(out, v...)
	}
	return out
}

// runFigs is an untraced sweep-figs run. A query here is one trial: each
// trial runs one threshold-query session.
func runFigs(o options) (*result, error) {
	ck := &checker{}
	s, err := runSweep(o, ck)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: s.attempted, Metrics: map[string]metric{}}
	put := res.put
	put("cpu_ms_per_query", ms(s.cpu)/(s.trials*float64(s.sweeps)))
	put("slots_per_query", s.polls/s.sessions)
	put("peak_rss_mb", s.rssBytes/(1<<20))
	put("setup_s", median(s.setupTimes))
	res.verdict(ck)
	return res, nil
}

// sweepSample is about how many sweep-shaped sessions a traced
// sweep-figs run replays with spans: a one-second schedule at this rate.
const sweepSample = 2000

// traceFigs is a traced sweep-figs run: the same sweep, whose process
// times give the experiment layer's split, and a seeded sample of
// sweep-shaped sessions (N=128, t=16, the paper's algorithms and both
// channel models) replayed through a timed fastsim+core stack, as the
// sweep runs them: without metrics, audit or obs layers.
func traceFigs(o options) (*result, error) {
	ck := &checker{}
	s, err := runSweep(o, ck)
	if err != nil {
		return nil, err
	}
	reqs := smallRequests(o.seed, sweepSample, time.Second)
	rec := newRecorder()
	var traced, bare time.Duration
	var polls, rounds float64
	rt0 := readRuntime()
	for i, req := range reqs {
		sp := serve.Spec{N: req.N, T: req.T, X: req.X, Alg: req.Alg, Model: req.Model, Seed: req.Seed}
		plain, err := replay(sp, "", replayEnv{})
		if err != nil {
			return nil, err
		}
		rec.req = int32(i)
		timed, err := replay(sp, "", replayEnv{spans: rec})
		if err != nil {
			return nil, err
		}
		ck.expect(plain.outcome == timed.outcome, "sample %d: timed replay %+v, untimed %+v", i, timed.outcome, plain.outcome)
		ck.expect(plain.Decision == plain.truth, "sample %d: wrong verdict on a lossless field", i)
		bare += plain.compute
		traced += timed.compute
		polls += float64(plain.Polls)
		rounds += float64(plain.Rounds)
	}
	rt1 := readRuntime()
	self, err := selfTimes(rec.names, rec.spans, spanCore)
	ck.expect(err == nil, "span self times: %v", err)
	if err := rec.write(o); err != nil {
		return nil, err
	}
	n := float64(len(reqs))
	res := &result{Attempted: s.attempted, Metrics: map[string]metric{}}
	put := res.put
	put("experiment.trials", s.trials)
	for _, id := range heavyFigs {
		put("experiment."+id+"_s", median(s.figMs[id])/1e3)
	}
	put("experiment.parallel_eff", s.cpu.Seconds()/(s.wall.Seconds()*float64(runtime.NumCPU())))
	lat := s.figLatencies()
	put("loadgen.p50_ms", percentile(lat, 50))
	put("loadgen.p90_ms", percentile(lat, 90))
	put("loadgen.qps", s.trials*float64(s.sweeps)/s.wall.Seconds())
	put("core.us_per_query", float64(self[spanCore].self)/1e3/n)
	put("core.polls_per_query", polls/n)
	put("core.rounds_per_query", rounds/n)
	put("fastsim.ns_per_poll", self[spanFastsim].perSpanNs())
	// Both replays of each sample allocate; halve to count one.
	put("runtime.alloc_kb_per_query", float64(rt1.alloc-rt0.alloc)/1024/n/2)
	put("runtime.gc_per_1k_queries", float64(rt1.gcs-rt0.gcs)*1000/n/2)
	put("trace.overhead", traced.Seconds()/bare.Seconds())
	res.verdict(ck)
	return res, nil
}
