package main

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trial"
)

func TestBuildTrialAllAlgorithms(t *testing.T) {
	cfg := fastsim.DefaultConfig()
	for alg, wantName := range map[string]string{
		"2tbins":   "2tBins",
		"exp":      "ExpIncrease",
		"abns-t":   "ABNS(p0=t)",
		"abns-2t":  "ABNS(p0=2t)",
		"probabns": "ProbABNS",
		"oracle":   "Oracle",
		"csma":     "CSMA",
		"seq":      "Sequential",
	} {
		trialFn, name, err := buildTrial(alg, 32, 8, 10, cfg, &trial.Stack{Metrics: metrics.New()})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if name != wantName {
			t.Errorf("%s: name = %q, want %q", alg, name, wantName)
		}
		cost, err := trialFn(0, rng.New(1))
		if err != nil {
			t.Fatalf("%s trial: %v", alg, err)
		}
		if cost < 0 {
			t.Errorf("%s: negative cost %v", alg, cost)
		}
	}
}

func TestBuildTrialUnknownAlgorithm(t *testing.T) {
	if _, _, err := buildTrial("nope", 32, 8, 10, fastsim.DefaultConfig(), &trial.Stack{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestBuildTrialAudited(t *testing.T) {
	col := &audit.Collector{}
	trialFn, _, err := buildTrial("2tbins", 32, 8, 10, fastsim.DefaultConfig(), &trial.Stack{Audit: col})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := trialFn(i, rng.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	col.Flush()
	s := col.Stats()
	if s.Sessions != 5 {
		t.Fatalf("graded %d sessions, want 5", s.Sessions)
	}
	// Lossless fastsim: every session correct, zero violations.
	if s.Outcomes[audit.OutcomeCorrect] != 5 || s.Violations() != 0 {
		t.Fatalf("lossless audit stats: %+v", s)
	}
}

func TestBuildTrialAuditRejectsBaselines(t *testing.T) {
	stack := &trial.Stack{Audit: &audit.Collector{}}
	for _, alg := range []string{"csma", "seq"} {
		if _, _, err := buildTrial(alg, 32, 8, 10, fastsim.DefaultConfig(), stack); err == nil {
			t.Fatalf("%s accepted -audit", alg)
		}
	}
}

func TestBuildTrialDeterministic(t *testing.T) {
	trialFn, _, err := buildTrial("2tbins", 64, 8, 12, fastsim.DefaultConfig(), &trial.Stack{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := trialFn(0, rng.New(7))
	b, _ := trialFn(1, rng.New(7))
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

func TestPrintTraceRejectsBaselines(t *testing.T) {
	if err := printTrace(io.Discard, "csma", 16, 4, 4, fastsim.DefaultConfig(), &trial.Stack{}, 1); err == nil {
		t.Fatal("baseline trace accepted")
	}
}

func TestPrintTraceRuns(t *testing.T) {
	if err := printTrace(io.Discard, "probabns", 16, 4, 4, fastsim.DefaultConfig(), &trial.Stack{}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTrialFaultedAndRetried(t *testing.T) {
	fcfg, err := faults.ParseSpec("burst=4,frac=0.3,churn=0.01")
	if err != nil {
		t.Fatal(err)
	}
	stack := &trial.Stack{Faults: &fcfg, Retry: query.RetryPolicy{MaxRetries: 2, Backoff: 1}}
	trialFn, _, err := buildTrial("2tbins", 32, 8, 10, fastsim.DefaultConfig(), stack)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if cost, err := trialFn(i, rng.New(uint64(i))); err != nil {
			t.Fatal(err)
		} else if cost < 0 {
			t.Fatalf("trial %d: negative cost %v", i, cost)
		}
	}
}

var (
	dumpPollsRE = regexp.MustCompile(`decision=\w+, (\d+) polls\) ---`)
	meanCostRE  = regexp.MustCompile(`mean cost: ([0-9.]+) queries`)
)

// TestDumpMatchesSweepCost: -dump renders the sweep's own trial 0, so with
// -runs 1 the dumped poll count is exactly the reported mean cost —
// including under injected faults and retries, which the dump must stack
// the way the sweep does.
func TestDumpMatchesSweepCost(t *testing.T) {
	for _, extra := range [][]string{
		nil,
		{"-faults", "burst=8,frac=0.5", "-retries", "2"},
		{"-alg", "oracle"},
		{"-alg", "exp", "-seed", "9", "-faults", "skew=0.2,churn=0.05"},
	} {
		t.Run(strings.Join(extra, " "), func(t *testing.T) {
			args := append([]string{"-n", "128", "-t", "16", "-x", "20", "-runs", "1", "-dump"}, extra...)
			var out bytes.Buffer
			if err := run(args, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			dumped := dumpPollsRE.FindStringSubmatch(out.String())
			mean := meanCostRE.FindStringSubmatch(out.String())
			if dumped == nil || mean == nil {
				t.Fatalf("output lacks the dump header or the mean cost:\n%s", out.String())
			}
			cost, err := strconv.ParseFloat(mean[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("%.0f", cost); dumped[1] != want {
				t.Fatalf("dump shows %s polls, the one-trial sweep costs %s", dumped[1], want)
			}
		})
	}
}
