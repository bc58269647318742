package stats

import (
	"math"
	"testing"
	"testing/quick"

	"tcast/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 || r.StdErr() != 0 {
		t.Fatal("zero-value accumulator not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Observe(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", r.Mean())
	}
	// Population variance of this classic data set is 4; sample variance is
	// 32/7.
	if !almostEqual(r.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v, want %v", r.Variance(), 32.0/7)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningSingleObservation(t *testing.T) {
	var r Running
	r.Observe(3.5)
	if r.Mean() != 3.5 || r.Variance() != 0 || r.Min() != 3.5 || r.Max() != 3.5 {
		t.Fatal("single-observation stats wrong")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	src := rng.New(1)
	var small, large Running
	for i := 0; i < 100; i++ {
		small.Observe(src.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Observe(src.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: small=%v large=%v", small.CI95(), large.CI95())
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	src := rng.New(2)
	var all, a, b Running
	for i := 0; i < 1000; i++ {
		x := src.Normal(10, 3)
		all.Observe(x)
		if i%2 == 0 {
			a.Observe(x)
		} else {
			b.Observe(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if !almostEqual(a.Mean(), all.Mean(), 1e-9) {
		t.Fatalf("merged mean = %v, want %v", a.Mean(), all.Mean())
	}
	if !almostEqual(a.Variance(), all.Variance(), 1e-9) {
		t.Fatalf("merged variance = %v, want %v", a.Variance(), all.Variance())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged min/max wrong")
	}
}

func TestMergeEmptyCases(t *testing.T) {
	var a, b Running
	a.Observe(1)
	a.Observe(3)
	before := a
	a.Merge(&b) // merging empty changes nothing
	if a != before {
		t.Fatal("merging empty accumulator changed state")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 2 || b.Mean() != 2 {
		t.Fatal("merge into empty accumulator wrong")
	}
}

func TestQuickMergeAssociative(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var seq Running
		parts := make([]*Running, 4)
		for i := range parts {
			parts[i] = &Running{}
		}
		for i := 0; i < 400; i++ {
			x := src.Float64()*100 - 50
			seq.Observe(x)
			parts[i%4].Observe(x)
		}
		var merged Running
		for _, p := range parts {
			merged.Merge(p)
		}
		return almostEqual(merged.Mean(), seq.Mean(), 1e-8) &&
			almostEqual(merged.Variance(), seq.Variance(), 1e-8) &&
			merged.N() == seq.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	sample := []float64{5, 1, 3, 2, 4} // unsorted on purpose
	cases := map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5}
	for q, want := range cases {
		if got := Quantile(sample, q); !almostEqual(got, want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.25); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("interpolated quantile = %v, want 2.5", got)
	}
	// Single element.
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	// Input not mutated.
	if sample[0] != 5 {
		t.Error("Quantile sorted the caller's slice")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSeriesYAt(t *testing.T) {
	s := &Series{Name: "curve"}
	s.Append(Point{X: 1, Y: 10})
	s.Append(Point{X: 2, Y: 20})
	if y, err := s.YAt(2); err != nil || y != 20 {
		t.Fatalf("YAt(2) = %v, %v", y, err)
	}
	if _, err := s.YAt(3); err == nil {
		t.Fatal("YAt(3) succeeded on missing point")
	}
}

func TestSeriesMaxY(t *testing.T) {
	s := &Series{Name: "curve"}
	if _, err := s.MaxY(); err == nil {
		t.Fatal("MaxY on empty series did not error")
	}
	s.Append(Point{X: 1, Y: 10})
	s.Append(Point{X: 5, Y: 42})
	s.Append(Point{X: 9, Y: 7})
	p, err := s.MaxY()
	if err != nil || p.X != 5 || p.Y != 42 {
		t.Fatalf("MaxY = %+v, %v", p, err)
	}
}

func TestSeriesSorted(t *testing.T) {
	s := &Series{Name: "c"}
	s.Append(Point{X: 3})
	s.Append(Point{X: 1})
	s.Append(Point{X: 2})
	sorted := s.Sorted()
	for i, want := range []float64{1, 2, 3} {
		if sorted.Points[i].X != want {
			t.Fatalf("Sorted[%d].X = %v, want %v", i, sorted.Points[i].X, want)
		}
	}
	if s.Points[0].X != 3 {
		t.Fatal("Sorted mutated the original")
	}
}

func TestTableGet(t *testing.T) {
	tab := &Table{Title: "fig"}
	tab.Add(&Series{Name: "a"})
	tab.Add(&Series{Name: "b"})
	if tab.Get("b") == nil || tab.Get("b").Name != "b" {
		t.Fatal("Get(b) failed")
	}
	if tab.Get("zzz") != nil {
		t.Fatal("Get on missing series returned non-nil")
	}
}

func TestCI95SmallSampleUsesStudentT(t *testing.T) {
	// Five observations with known sd: the 95% CI must use t(df=4)=2.776,
	// not the normal 1.96 — the normal approximation understates the
	// interval by over 40% at this n.
	var r Running
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Observe(x)
	}
	want := 2.776 * r.StdErr()
	if !almostEqual(r.CI95(), want, 1e-12) {
		t.Fatalf("CI95 = %v, want %v (Student-t)", r.CI95(), want)
	}
	if normal := 1.96 * r.StdErr(); r.CI95() <= normal {
		t.Fatalf("small-sample CI %v not wider than normal %v", r.CI95(), normal)
	}
}

func TestCI95LargeSampleFallsBackToNormal(t *testing.T) {
	src := rng.New(4)
	var r Running
	for i := 0; i < 100; i++ {
		r.Observe(src.NormFloat64())
	}
	if !almostEqual(r.CI95(), 1.96*r.StdErr(), 1e-12) {
		t.Fatalf("large-sample CI95 = %v, want 1.96*SE = %v", r.CI95(), 1.96*r.StdErr())
	}
}

func TestCI95DegenerateSamples(t *testing.T) {
	var r Running
	if r.CI95() != 0 {
		t.Fatal("empty accumulator CI not 0")
	}
	r.Observe(7)
	if r.CI95() != 0 {
		t.Fatal("single observation CI not 0")
	}
}

func TestCI95MonotonicAcrossTableBoundary(t *testing.T) {
	// Adding an identical spread of samples around the df=29 -> normal
	// crossover must shrink the CI smoothly: the critical value decreases
	// monotonically in n, so the half-width (same sd) cannot grow.
	mkRunning := func(n int) Running {
		var r Running
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				r.Observe(0)
			} else {
				r.Observe(1)
			}
		}
		return r
	}
	first := mkRunning(4)
	prev := first.CI95()
	for n := 6; n <= 40; n += 2 {
		r := mkRunning(n)
		cur := r.CI95()
		if cur >= prev {
			t.Fatalf("CI did not shrink from n=%d (%v) to n=%d (%v)", n-2, prev, n, cur)
		}
		prev = cur
	}
}

func TestQuantilesMatchQuantile(t *testing.T) {
	sample := []float64{9, 1, 4, 7, 2, 8, 3, 6, 5}
	qs := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
	got := Quantiles(sample, qs...)
	for i, q := range qs {
		if want := Quantile(sample, q); got[i] != want {
			t.Errorf("Quantiles[%v] = %v, want %v", q, got[i], want)
		}
	}
}

func TestQuantilesDoNotMutateInput(t *testing.T) {
	sample := []float64{5, 3, 1, 4, 2}
	orig := append([]float64(nil), sample...)
	Quantiles(sample, 0.5, 0.9)
	Quantile(sample, 0.5)
	for i := range sample {
		if sample[i] != orig[i] {
			t.Fatalf("input mutated: %v, want %v", sample, orig)
		}
	}
}

func TestQuantilesPanicOnBadInput(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("empty sample", func() { Quantiles(nil, 0.5) })
	assertPanics("q out of range", func() { Quantiles([]float64{1}, 1.5) })
}

// TestQuantilesSingleSort is the regression test for the quantile cost
// model: Quantiles must sort exactly once regardless of how many
// quantiles it returns, while three Quantile calls pay three sorts.
func TestQuantilesSingleSort(t *testing.T) {
	sample := make([]float64, 1000)
	r := rng.New(11)
	for i := range sample {
		sample[i] = float64(r.Intn(1 << 20))
	}

	before := sampleSorts.Load()
	multi := Quantiles(sample, 0.5, 0.9, 0.99)
	if got := sampleSorts.Load() - before; got != 1 {
		t.Fatalf("Quantiles(3 qs) performed %d sorts, want 1", got)
	}

	before = sampleSorts.Load()
	single := []float64{Quantile(sample, 0.5), Quantile(sample, 0.9), Quantile(sample, 0.99)}
	if got := sampleSorts.Load() - before; got != 3 {
		t.Fatalf("3×Quantile performed %d sorts, want 3", got)
	}
	for i := range multi {
		if multi[i] != single[i] {
			t.Fatalf("Quantiles[%d]=%v != Quantile=%v", i, multi[i], single[i])
		}
	}
}

// TestQuantilesAllocations pins the allocation budget: one sorted copy
// plus one result slice for Quantiles, versus a fresh copy per Quantile
// call.
func TestQuantilesAllocations(t *testing.T) {
	sample := make([]float64, 512)
	for i := range sample {
		sample[i] = float64((i * 7919) % 997)
	}
	multi := testing.AllocsPerRun(50, func() {
		Quantiles(sample, 0.5, 0.9, 0.99)
	})
	if multi > 2 {
		t.Errorf("Quantiles allocates %v per run, want <= 2 (copy + result)", multi)
	}
	per := testing.AllocsPerRun(50, func() {
		Quantile(sample, 0.5)
		Quantile(sample, 0.9)
		Quantile(sample, 0.99)
	})
	if per < 3 {
		t.Errorf("3×Quantile allocates %v per run; the copy-per-call cost model changed, update the docs", per)
	}
}
