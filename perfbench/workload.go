package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// request is one POST /query body. Field names are the daemon's wire
// names; x and trial are always sent, since zero is a meaningful value.
type request struct {
	Client  string `json:"client"`
	N       int    `json:"n"`
	T       int    `json:"t"`
	X       int    `json:"x"`
	Alg     string `json:"alg"`
	Model   string `json:"model"`
	Seed    uint64 `json:"seed"`
	Trial   int    `json:"trial"`
	Faults  string `json:"faults,omitempty"`
	Retries int    `json:"retries,omitempty"`
	Audit   bool   `json:"audit,omitempty"`

	// due is the send time relative to the start of an open-loop run.
	due time.Duration
}

// lossless reports whether the request's field drops no replies, so its
// verdict must be exactly right.
func (r request) lossless() bool { return r.Faults == "" }

const (
	smallRate    = 1000 // offered queries per second on serve-small
	smallClients = 64   // simulated users on serve-small
	// warmUpSpan of serve-small's schedule fills tcastd's default session
	// history of 4096 before timing starts.
	warmUpSpan = 4200 * time.Second / smallRate
	// faultSpec and faultRetries are tcastbench's defaults for its
	// faulted entry, so the two benchmarks price the same fault process.
	faultSpec    = "burst=8,frac=0.2,churn=0.002,recover=0.1,skew=0.01"
	faultRetries = 2
	// sparsePass and faultedPass are the closed-loop list lengths: whole
	// multiples of each workload's parameter grid, so every grid point
	// appears equally often whatever the seed.
	sparsePass  = 360
	faultedPass = 480
	// closedHistory is tcastd's -max-history on the closed-loop workloads.
	closedHistory = 64
)

var (
	smallXs    = []int{0, 8, 15, 16, 17, 32, 64}
	smallAlgs  = []string{"2tbins", "exp", "abns-2t", "probabns"}
	models     = []string{"1+", "2+"}
	sparseNs   = []int{1 << 15, 1 << 16, 1 << 17}
	sparseXs   = []int{0, 8, 16, 32, 64}
	faultedXs  = []int{0, 8, 16, 32, 64}
	faultedN   = 4096
	thresholdT = 16
)

// newRand is the workload generator's only source of randomness.
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x7463617374)) }

// grid repeats base in independently shuffled blocks until it holds n
// entries, so each base entry appears n/len(base) times (±1).
func grid[T any](r *rand.Rand, base []T, n int) []T {
	out := make([]T, 0, n)
	for len(out) < n {
		block := append([]T(nil), base...)
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// smallRequests is serve-small's open-loop schedule: Poisson arrivals at
// rate queries per second for d, over the N=128 grid of positives,
// algorithms and channel models, with one request in four audited and
// clients drawn from a pool of simulated users.
func smallRequests(seed uint64, rate float64, d time.Duration) []request {
	r := newRand(seed)
	var dues []time.Duration
	for at := 0.0; ; {
		at += r.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			break
		}
		dues = append(dues, due)
	}
	type point struct {
		x          int
		alg, model string
	}
	var base []point
	for _, x := range smallXs {
		for _, a := range smallAlgs {
			for _, m := range models {
				base = append(base, point{x, a, m})
			}
		}
	}
	pts := grid(r, base, len(dues))
	reqs := make([]request, len(dues))
	for i, p := range pts {
		reqs[i] = request{
			Client: fmt.Sprintf("u%02d", r.IntN(smallClients)),
			N:      128, T: thresholdT, X: p.x, Alg: p.alg, Model: p.model,
			Seed:  r.Uint64(),
			Audit: i%4 == 0,
			due:   dues[i],
		}
	}
	return reqs
}

// sparseRequests is serve-sparse's closed-loop pass: lossless fields
// above the sparse cutover, half of them audited.
func sparseRequests(seed uint64) []request {
	r := newRand(seed)
	type point struct{ n, x int }
	var base []point
	for _, n := range sparseNs {
		for _, x := range sparseXs {
			base = append(base, point{n, x})
		}
	}
	reqs := make([]request, sparsePass)
	for i, p := range grid(r, base, sparsePass) {
		reqs[i] = request{
			Client: fmt.Sprintf("c%d", i%2),
			N:      p.n, T: thresholdT, X: p.x, Alg: "2tbins", Model: "1+",
			Seed:  r.Uint64(),
			Audit: i%2 == 0,
		}
	}
	return reqs
}

// faultedRequests is serve-faulted's closed-loop pass: 2tBins on a
// faulted N=4096 field with retries.
func faultedRequests(seed uint64) []request {
	r := newRand(seed)
	reqs := make([]request, faultedPass)
	for i, x := range grid(r, faultedXs, faultedPass) {
		reqs[i] = request{
			Client: fmt.Sprintf("c%d", i%2),
			N:      faultedN, T: thresholdT, X: x, Alg: "2tbins", Model: "1+",
			Seed:    r.Uint64(),
			Faults:  faultSpec,
			Retries: faultRetries,
		}
	}
	return reqs
}
