package obs

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcast/internal/trace"
)

// openRun registers the run flags on a fresh flag set, parses args and
// opens the run with stdout/stderr captured.
func openRun(t *testing.T, args []string, addr string) (*Run, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	var rc RunConfig
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	rc.RegisterFlags(fs, "run")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	rc.Addr = addr
	var stdout, stderr bytes.Buffer
	r, err := rc.Open("testcmd", &stdout, &stderr, trace.IntAttr("n", 4))
	if err != nil {
		t.Fatal(err)
	}
	return r, &stdout, &stderr
}

// TestRunNoFlagsOpensNothing: a plain run pays for no observer.
func TestRunNoFlagsOpensNothing(t *testing.T) {
	r, stdout, stderr := openRun(t, nil, "")
	if r.Registry != nil || r.Plane != nil || r.Trace != nil || r.Audit != nil {
		t.Fatalf("plain run opened observers: %+v", r)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("plain run wrote output: stdout %q, stderr %q", stdout, stderr)
	}
}

// TestRunCloseWritesOutputs: with every output flag set, Close writes the
// audit summary, the Prometheus dump, a readable trace, the plane summary
// and the profiles.
func TestRunCloseWritesOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	promPath := filepath.Join(dir, "run.prom")
	profDir := filepath.Join(dir, "prof")
	r, stdout, stderr := openRun(t, []string{
		"-audit", "-trace", tracePath, "-metrics", promPath, "-pprof", profDir, "-sketch",
	}, "")
	if r.Registry == nil || r.Plane == nil || r.Trace == nil || r.Audit == nil {
		t.Fatalf("run missing observers: %+v", r)
	}
	r.Trace.Begin(trace.KindSession, "s")
	r.Trace.Advance(3)
	r.Trace.End()
	r.Audit.AddDecision("s", true, true)
	r.Plane.Bus().Publish(verdict("s", 0, 1, 3))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if !strings.HasPrefix(stdout.String(), "audit: 1 sessions") {
		t.Errorf("stdout = %q, want the audit summary", stdout)
	}
	if !strings.HasPrefix(stderr.String(), "sketch: 1 sessions") {
		t.Errorf("stderr = %q, want the plane summary", stderr)
	}
	tr, err := trace.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Meta) != 2 || tr.Meta[0] != trace.StringAttr("cmd", "testcmd") || tr.Meta[1] != trace.IntAttr("n", 4) {
		t.Errorf("trace meta = %+v, want cmd first, then the caller's", tr.Meta)
	}
	if tr.NumSpans() != 1 {
		t.Errorf("trace has %d spans, want 1", tr.NumSpans())
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "# TYPE "+MetricSessionPolls+" summary") {
		t.Errorf("metrics dump is not the Prometheus format:\n%s", prom)
	}
	for _, p := range []string{"cpu", "heap", "goroutine", "mutex", "block"} {
		if _, err := os.Stat(filepath.Join(profDir, p+".pprof")); err != nil {
			t.Error(err)
		}
	}
}

// TestRunServesAddr: a served run exposes /metrics and /slo until Close.
func TestRunServesAddr(t *testing.T) {
	r, _, stderr := openRun(t, nil, "127.0.0.1:0")
	if r.Registry == nil || r.Plane == nil {
		t.Fatal("served run must force the registry and the plane on")
	}
	line := strings.TrimSpace(stderr.String())
	addr := strings.TrimPrefix(line, "testcmd: serving metrics on ")
	if addr == line {
		t.Fatalf("stderr = %q, want the serving address", line)
	}
	r.Registry.Counter("tcast_test_total").Inc()
	for path, want := range map[string]string{"/metrics": "tcast_test_total 1", "/slo": `"events_dropped"`} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("%s: %d, want %q in\n%s", path, resp.StatusCode, want, body)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still up after Close")
	}
}
