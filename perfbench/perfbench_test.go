package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"tcast/internal/serve"
)

// listBytes renders a request list with its schedule, so two lists
// compare byte for byte.
func listBytes(t *testing.T, reqs []request) []byte {
	t.Helper()
	type withDue struct {
		request
		Due time.Duration
	}
	out := make([]withDue, len(reqs))
	for i, r := range reqs {
		out[i] = withDue{r, r.due}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameRequests(t *testing.T) {
	lists := map[string]func(uint64) []request{
		"serve-small":   func(s uint64) []request { return smallRequests(s, smallRate, 3*time.Second) },
		"serve-sparse":  sparseRequests,
		"serve-faulted": faultedRequests,
	}
	for name, gen := range lists {
		a, b, c := listBytes(t, gen(7)), listBytes(t, gen(7)), listBytes(t, gen(8))
		if string(a) != string(b) {
			t.Errorf("%s: seed 7 gave two different request lists", name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", name)
		}
	}
}

func TestWorkloadShape(t *testing.T) {
	small := smallRequests(3, smallRate, 5*time.Second)
	if n := len(small); n < 4500 || n > 5500 {
		t.Errorf("serve-small: %d requests in 5s at %d/s", n, smallRate)
	}
	clients := map[string]bool{}
	for i, r := range small {
		if r.due >= 5*time.Second || (i > 0 && r.due < small[i-1].due) {
			t.Fatalf("serve-small: request %d due at %v, out of order or past the run", i, r.due)
		}
		if r.Audit != (i%4 == 0) {
			t.Fatalf("serve-small: request %d audit=%v", i, r.Audit)
		}
		clients[r.Client] = true
	}
	if len(clients) > smallClients {
		t.Errorf("serve-small: %d clients, want at most %d", len(clients), smallClients)
	}
	count := map[[2]int]int{}
	for _, r := range sparseRequests(3) {
		count[[2]int{r.N, r.X}]++
		if !r.lossless() {
			t.Errorf("serve-sparse request %+v is faulted", r)
		}
	}
	if want := sparsePass / (len(sparseNs) * len(sparseXs)); len(count) != len(sparseNs)*len(sparseXs) {
		t.Errorf("serve-sparse covers %d grid points", len(count))
	} else {
		for k, n := range count {
			if n != want {
				t.Errorf("serve-sparse grid point %v appears %d times, want %d", k, n, want)
			}
		}
	}
	for _, r := range faultedRequests(3) {
		if r.Faults != faultSpec || r.Retries != faultRetries || r.N != faultedN {
			t.Fatalf("serve-faulted request %+v", r)
		}
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1)
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{4, 1, 3, 2}, 25, 1.75},
		{[]float64{7}, 99, 7},
		{hundred, 99, 99.01},
		{hundred, 90, 90.1},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	if hundred[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestWindowedPercentile(t *testing.T) {
	xs := []float64{1, 10, 100, 2, 20, 200, 3, 30, 300}
	win := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	// Window medians are 2, 20 and 200; their median is 20.
	if got := windowedPercentile(xs, win, 50); got != 20 {
		t.Errorf("windowed median = %v, want 20", got)
	}
}

func TestOpenLoopLatency(t *testing.T) {
	due := time.Unix(100, 0)
	at := func(ms float64) time.Time { return due.Add(time.Duration(ms * float64(time.Millisecond))) }
	cases := []struct {
		sent, acked, elapsed, want float64 // ms after due
	}{
		{0, 1, 0.25, 1},    // verdict ready before the 202 arrived
		{0, 1, 3, 3},       // session outlived the acknowledgement
		{5, 6, 0.5, 6},     // the generator ran 5ms late: that wait counts
		{5, 5.5, 2, 7},     // late and slow
		{0, 0.5, 0.5, 0.5}, // verdict and acknowledgement together
	}
	for _, c := range cases {
		got := openLoopLatency(due, at(c.sent), at(c.acked), time.Duration(c.elapsed*float64(time.Millisecond)))
		if want := time.Duration(c.want * float64(time.Millisecond)); got != want {
			t.Errorf("sent %v acked %v elapsed %v: latency %v, want %v", c.sent, c.acked, c.elapsed, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	names := []string{spanCore, spanObs, spanFastsim, "http.post"}
	spans := []span{
		{name: 0, parent: -1, start: 0, end: 100},   // core.run
		{name: 1, parent: 0, start: 10, end: 90},    // obs
		{name: 2, parent: 1, start: 20, end: 50},    // fastsim
		{name: 2, parent: 1, start: 60, end: 80},    // fastsim
		{name: 3, parent: -1, start: 200, end: 260}, // a tree of its own
	}
	got, err := selfTimes(names, spans, spanCore)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]layerTime{
		spanCore:    {self: 20, count: 1},
		spanObs:     {self: 30, count: 1},
		spanFastsim: {self: 50, count: 2},
		"http.post": {self: 60, count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if ns := got[spanFastsim].perSpanNs(); ns != 25 {
		t.Errorf("fastsim ns per span = %v, want 25", ns)
	}
}

// TestTimedReplay replays served-shaped sessions with and without the
// timing splices: the outcomes must agree, and the recorded spans must
// account for all of core.run.
func TestTimedReplay(t *testing.T) {
	specs := []serve.Spec{
		{N: 128, T: 16, X: 17, Alg: "2tbins", Model: "1+", Seed: 1, Audit: true},
		{N: 128, T: 16, X: 8, Alg: "probabns", Model: "2+", Seed: 2},
		{N: 4096, T: 16, X: 32, Alg: "2tbins", Model: "1+", Seed: 3, Faults: faultSpec, Retries: faultRetries},
	}
	for _, sp := range specs {
		rec := newRecorder()
		plain, err := replay(sp, "t", replayEnv{})
		if err != nil {
			t.Fatal(err)
		}
		timed, err := replay(sp, "t", replayEnv{spans: rec})
		if err != nil {
			t.Fatal(err)
		}
		if plain.outcome != timed.outcome {
			t.Errorf("%+v: timed replay %+v, untimed %+v", sp, timed.outcome, plain.outcome)
		}
		if sp.Faults == "" && plain.Decision != plain.truth {
			t.Errorf("%+v: wrong verdict on a lossless field", sp)
		}
		self, err := selfTimes(rec.names, rec.spans, spanCore)
		if err != nil {
			t.Fatal(err)
		}
		if self[spanFastsim].count == 0 || self[spanCore].count != 1 {
			t.Errorf("%+v: spans %v", sp, self)
		}
		if (sp.Faults != "") != (self[spanFaults].count > 0) || (sp.Audit) != (self[spanAudit].count > 0) {
			t.Errorf("%+v: layer spans %v do not match the stack", sp, self)
		}
	}
}

func TestMetricsDumpParsing(t *testing.T) {
	dump := "experiment_trials_total 902000\n" +
		"tcast_polls_total{kind=\"active\"} 3\n" +
		"tcast_polls_total{kind=\"empty\"} 4\n" +
		"tcast_polls_totally 100\n" +
		"tcast_session_polls count=773000 sum=2.5582630e+07 mean=33.1\n" +
		"  le=1 0\n"
	if got := sumFamily(dump, "tcast_polls_total"); got != 7 {
		t.Errorf("sumFamily = %v, want 7", got)
	}
	if got := sumFamily(dump, "experiment_trials_total"); got != 902000 {
		t.Errorf("sumFamily = %v, want 902000", got)
	}
	count, sum, err := histogramTotals(dump, "tcast_session_polls")
	if err != nil || count != 773000 || sum != 25582630 {
		t.Errorf("histogramTotals = %v, %v, %v", count, sum, err)
	}
	if _, _, err := histogramTotals(dump, "tcast_bin_size"); err == nil {
		t.Error("histogramTotals found a histogram that is not in the dump")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and perfbench's metric and
// workload tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, perfbench has %d", names, len(workloads))
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json has %d metrics, perfbench %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), perfbench %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
