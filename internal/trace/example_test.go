package trace_test

import (
	"fmt"

	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// ExampleRecorder instruments a session and summarizes what went over the
// air.
func ExampleRecorder() {
	r := rng.New(1)
	ch := fastsim.New(32, []int{3, 9, 17, 21, 30}, fastsim.DefaultConfig(), r.Split(1))
	rec := trace.NewRecorder()
	q := query.NewTap(ch, rec)
	res, err := (core.TwoTBins{}).Run(q, 32, 4, r.Split(2))
	if err != nil {
		panic(err)
	}
	s := rec.Summarize()
	fmt.Println("decision:", res.Decision)
	fmt.Println("polls recorded:", s.Polls == res.Queries)
	fmt.Println("kinds partition the polls:", s.Empty+s.Active+s.Decoded+s.Collisions == s.Polls)
	// Output:
	// decision: true
	// polls recorded: true
	// kinds partition the polls: true
}
