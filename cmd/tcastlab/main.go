// Command tcastlab drives the emulated TelosB testbed of Section IV-D:
// an initiator plus participant motes as goroutines behind serial
// interfaces, querying over a lossy backcast radio. It reports the Figure
// 4 curves and the error statistics the paper summarizes (no false
// positives, ~1.4% false negatives dominated by single-HACK groups).
//
// Usage:
//
//	tcastlab                          # the paper's campaign: 12 motes, t in {2,4,6}, 100 runs each
//	tcastlab -participants 20 -repeats 50 -miss 0.1
package main

import (
	"flag"
	"fmt"
	"os"

	"tcast/internal/motelab"
	"tcast/internal/obs"
	"tcast/internal/trace"
)

func main() {
	var (
		participants = flag.Int("participants", 12, "participant motes")
		repeats      = flag.Int("repeats", 100, "runs per (threshold, x) configuration")
		miss         = flag.Float64("miss", motelab.DefaultConfig().MissProb, "per-HACK-copy loss probability")
		badMote      = flag.Int("badmote", -1, "mote ID with a degraded link (-1: none)")
		badMiss      = flag.Float64("badmiss", 0.5, "the degraded mote's loss probability")
		seed         = flag.Uint64("seed", 2011, "random seed")
	)
	var rc obs.RunConfig
	rc.RegisterFlags(flag.CommandLine, "campaign")
	flag.Parse()

	run, err := rc.Open("tcastlab", os.Stdout, os.Stderr,
		trace.IntAttr("participants", *participants),
		trace.IntAttr("repeats", *repeats),
		trace.FloatAttr("miss", *miss),
		trace.Int64Attr("seed", int64(*seed)),
	)
	if err != nil {
		fatal(err)
	}
	if run.Trace != nil {
		run.Trace.Begin(trace.KindExperiment, "tcastlab")
	}

	cfg := motelab.Config{Participants: *participants, MissProb: *miss, Seed: *seed, Metrics: run.Registry, Trace: run.Trace, Audit: run.Audit, Obs: run.Plane.Bus()}
	if *badMote >= 0 {
		if *badMote >= *participants {
			fatal(fmt.Errorf("badmote %d outside 0..%d", *badMote, *participants-1))
		}
		perMote := make([]float64, *participants)
		for i := range perMote {
			perMote[i] = *miss
		}
		perMote[*badMote] = *badMiss
		cfg.PerMoteMiss = perMote
	}
	lab, err := motelab.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer lab.Close()

	curves, agg, err := lab.RunPaperProtocol(*repeats)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("emulated testbed: %d participants, miss=%.3f, %d runs/config\n\n", *participants, *miss, *repeats)
	fmt.Printf("%4s  %8s  %8s  %8s\n", "x", "t=2", "t=4", "t=6")
	for x := 0; x <= *participants; x++ {
		fmt.Printf("%4d  %8.2f  %8.2f  %8.2f\n", x, curves[2][x], curves[4][x], curves[6][x])
	}
	fmt.Printf("\n%d TCast runs: %d false positives, %d false negatives (error rate %.2f%%)\n",
		agg.Trials, agg.FalsePositives, agg.FalseNegatives, 100*agg.ErrorRate())
	fmt.Println("\nmiss rate by superposing HACK count:")
	for k := 1; k <= 4; k++ {
		if agg.QueriesBySuperposition[k] > 0 {
			fmt.Printf("  k=%d: %5d queries, %4d missed (%.2f%%)\n",
				k, agg.QueriesBySuperposition[k], agg.MissedBySuperposition[k], 100*agg.MissRate(k))
		}
	}
	if *badMote >= 0 {
		fmt.Println("\nmiss events by mote:")
		for id := 0; id < *participants; id++ {
			if agg.MissedByMote[id] > 0 {
				marker := ""
				if id == *badMote {
					marker = "  <- degraded link"
				}
				fmt.Printf("  mote %2d: %4d%s\n", id, agg.MissedByMote[id], marker)
			}
		}
	}

	if run.Audit != nil {
		fmt.Println() // sets off the audit summary Close prints
	}
	if rc.MetricsOut != "" {
		// Fold the campaign's graded aggregates in next to the per-poll
		// instruments the lab recorded during the runs.
		reg := run.Registry
		reg.Counter("motelab_trials_total").Add(int64(agg.Trials))
		reg.Counter("motelab_false_positives_total").Add(int64(agg.FalsePositives))
		reg.Counter("motelab_false_negatives_total").Add(int64(agg.FalseNegatives))
		for k, q := range agg.QueriesBySuperposition {
			reg.Counter("motelab_superposed_queries_total", "k", fmt.Sprint(k)).Add(int64(q))
		}
		for k, missed := range agg.MissedBySuperposition {
			reg.Counter("motelab_superposed_missed_total", "k", fmt.Sprint(k)).Add(int64(missed))
		}
	}
	if err := run.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcastlab:", err)
	os.Exit(1)
}
