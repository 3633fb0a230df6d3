package temporal

import (
	"math"
	"testing"
	"testing/quick"

	"carbonshift/internal/rng"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

func TestEvaluateToyExample(t *testing.T) {
	// Mirrors the paper's Figure 2(a) idea: a job of length 2 with
	// slack 3 in a valley-shaped trace.
	ci := []float64{30, 38, 10, 4, 16, 25, 40}
	r, err := Evaluate(ci, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline != 68 {
		t.Errorf("baseline = %v, want 68", r.Baseline)
	}
	if r.Deferred != 14 || r.Start != 2 {
		t.Errorf("deferred = %v at start %d, want 14 at 2", r.Deferred, r.Start)
	}
	if r.Interrupted != 14 {
		t.Errorf("interrupted = %v, want 14 (same hours)", r.Interrupted)
	}
	if r.DeferSaving() != 54 || r.TotalSaving() != 54 || r.InterruptSaving() != 0 {
		t.Errorf("savings = %v/%v/%v", r.DeferSaving(), r.InterruptSaving(), r.TotalSaving())
	}
}

func TestInterruptionBeatsDeferralOnSplitValleys(t *testing.T) {
	// Two separated cheap hours: contiguous placement cannot use both.
	ci := []float64{1, 50, 50, 1, 50}
	r, err := Evaluate(ci, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Interrupted != 2 {
		t.Errorf("interrupted = %v, want 2", r.Interrupted)
	}
	if r.Deferred != 51 {
		t.Errorf("deferred = %v, want 51", r.Deferred)
	}
}

func TestEvaluateZeroSlack(t *testing.T) {
	ci := []float64{5, 3, 9}
	r, err := Evaluate(ci, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline != 12 || r.Deferred != 12 || r.Interrupted != 12 {
		t.Errorf("zero-slack result = %+v, all costs must equal baseline", r)
	}
}

func TestEvaluateErrors(t *testing.T) {
	ci := make([]float64, 10)
	cases := []struct{ arrival, length, slack int }{
		{0, 0, 0},  // zero length
		{0, 1, -1}, // negative slack
		{-1, 1, 0}, // negative arrival
		{5, 4, 2},  // horizon overrun
		{0, 11, 0}, // longer than trace
		{9, 1, 1},  // just past the end
	}
	for _, c := range cases {
		if _, err := Evaluate(ci, c.arrival, c.length, c.slack); err == nil {
			t.Errorf("Evaluate(%+v) accepted", c)
		}
	}
}

func TestSchedulePicksCheapestHours(t *testing.T) {
	ci := []float64{9, 1, 8, 2, 7, 3}
	hours, err := Schedule(ci, 0, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 5}
	if len(hours) != 3 {
		t.Fatalf("schedule = %v", hours)
	}
	for i := range want {
		if hours[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", hours, want)
		}
	}
}

func TestScheduleError(t *testing.T) {
	if _, err := Schedule([]float64{1}, 0, 2, 0); err == nil {
		t.Fatal("overrun accepted")
	}
}

func randSeries(n int, seed uint64) []float64 {
	src := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = src.Uniform(5, 800)
	}
	return out
}

func TestSweepMatchesNaive(t *testing.T) {
	ci := randSeries(500, 3)
	for _, tc := range []struct{ length, slack int }{
		{1, 0}, {1, 24}, {6, 24}, {24, 24}, {24, 100}, {48, 5}, {100, 250},
	} {
		arrivals := len(ci) - tc.length - tc.slack
		fast, err := Sweep(ci, tc.length, tc.slack, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := SweepNaive(ci, tc.length, tc.slack, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < arrivals; a++ {
			if !almost(fast.Baseline[a], slow.Baseline[a]) {
				t.Fatalf("L=%d s=%d baseline[%d]: %v != %v", tc.length, tc.slack, a, fast.Baseline[a], slow.Baseline[a])
			}
			if !almost(fast.Deferred[a], slow.Deferred[a]) {
				t.Fatalf("L=%d s=%d deferred[%d]: %v != %v", tc.length, tc.slack, a, fast.Deferred[a], slow.Deferred[a])
			}
			if !almost(fast.Interrupted[a], slow.Interrupted[a]) {
				t.Fatalf("L=%d s=%d interrupted[%d]: %v != %v", tc.length, tc.slack, a, fast.Interrupted[a], slow.Interrupted[a])
			}
		}
	}
}

// TestSeriesSweepsManyCells sweeps one Series at several (length, slack)
// pairs, including ones that need only a prefix of the trace, on
// random and heavily tied values. Each cell must match SweepNaive, and
// bit for bit a fresh Sweep of just the prefix the cell touches, whose
// ranks come from its own sort.
func TestSeriesSweepsManyCells(t *testing.T) {
	tied := make([]float64, 600)
	src := rng.New(5)
	for i := range tied {
		tied[i] = float64(100 * (1 + src.Intn(5)))
	}
	for name, ci := range map[string][]float64{"random": randSeries(600, 4), "tied": tied} {
		ser := NewSeries(ci)
		for _, tc := range []struct{ length, slack, arrivals int }{
			{1, 0, 599}, {24, 24, 100}, {6, 168, 300}, {24, 168, 408}, {48, 5, 200}, {100, 250, 1},
		} {
			got, err := ser.Sweep(tc.length, tc.slack, tc.arrivals)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := SweepNaive(ci, tc.length, tc.slack, tc.arrivals)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Sweep(ci[:tc.arrivals+tc.length+tc.slack-1], tc.length, tc.slack, tc.arrivals)
			if err != nil {
				t.Fatal(err)
			}
			for a := 0; a < tc.arrivals; a++ {
				for _, c := range []struct {
					policy           string
					got, slow, fresh float64
				}{
					{"baseline", got.Baseline[a], slow.Baseline[a], fresh.Baseline[a]},
					{"deferred", got.Deferred[a], slow.Deferred[a], fresh.Deferred[a]},
					{"interrupted", got.Interrupted[a], slow.Interrupted[a], fresh.Interrupted[a]},
				} {
					if !almost(c.got, c.slow) || c.got != c.fresh {
						t.Fatalf("%s L=%d s=%d %s[%d]: series %v, naive %v, fresh prefix sweep %v",
							name, tc.length, tc.slack, c.policy, a, c.got, c.slow, c.fresh)
					}
				}
			}
		}
	}
}

func TestQuickSweepMatchesNaive(t *testing.T) {
	f := func(seed uint64, lRaw, sRaw uint8) bool {
		n := 200
		length := int(lRaw)%40 + 1
		slack := int(sRaw) % 80
		arrivals := n - length - slack
		if arrivals < 1 {
			return true
		}
		ci := randSeries(n, seed)
		fast, err := Sweep(ci, length, slack, arrivals)
		if err != nil {
			return false
		}
		slow, _ := SweepNaive(ci, length, slack, arrivals)
		for a := 0; a < arrivals; a++ {
			if !almost(fast.Deferred[a], slow.Deferred[a]) || !almost(fast.Interrupted[a], slow.Interrupted[a]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepMonotoneInvariant(t *testing.T) {
	ci := randSeries(2000, 11)
	costs, err := Sweep(ci, 24, 168, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := costs.ValidateMonotone(); err != nil {
		t.Fatal(err)
	}
}

func TestMoreSlackNeverHurts(t *testing.T) {
	ci := randSeries(1500, 17)
	arrivals := 500
	prev, err := Sweep(ci, 24, 0, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	for _, slack := range []int{24, 168, 720} {
		cur, err := Sweep(ci, 24, slack, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < arrivals; a++ {
			if cur.Deferred[a] > prev.Deferred[a]+1e-6 {
				t.Fatalf("slack %d raised deferred cost at %d", slack, a)
			}
			if cur.Interrupted[a] > prev.Interrupted[a]+1e-6 {
				t.Fatalf("slack %d raised interrupted cost at %d", slack, a)
			}
		}
		prev = cur
	}
}

func TestSweepErrors(t *testing.T) {
	ci := make([]float64, 10)
	if _, err := Sweep(ci, 1, 0, 0); err == nil {
		t.Error("zero arrivals accepted")
	}
	if _, err := Sweep(ci, 5, 5, 2); err == nil {
		t.Error("overrunning sweep accepted")
	}
	if _, err := SweepNaive(ci, 5, 5, 2); err == nil {
		t.Error("overrunning naive sweep accepted")
	}
	if _, err := SweepNaive(ci, 1, 0, 0); err == nil {
		t.Error("zero arrivals accepted by naive sweep")
	}
}

func TestReduce(t *testing.T) {
	c := Costs{
		Baseline:    []float64{100, 200},
		Deferred:    []float64{80, 120},
		Interrupted: []float64{70, 100},
	}
	ms := c.Reduce()
	if !almost(ms.Baseline, 150) || !almost(ms.DeferSaving, 50) || !almost(ms.InterruptSaving, 15) {
		t.Fatalf("Reduce = %+v", ms)
	}
	if got := (Costs{}).Reduce(); got != (MeanSavings{}) {
		t.Fatalf("empty Reduce = %+v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(s.Mean, 5) || !almost(s.Std, 2) {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.CI95 <= 0 {
		t.Fatalf("CI95 = %v", s.CI95)
	}
}

func TestValidateMonotoneCatchesViolations(t *testing.T) {
	c := Costs{
		Baseline:    []float64{10},
		Deferred:    []float64{11},
		Interrupted: []float64{9},
	}
	if err := c.ValidateMonotone(); err == nil {
		t.Fatal("deferred > baseline not caught")
	}
	c = Costs{
		Baseline:    []float64{10},
		Deferred:    []float64{8},
		Interrupted: []float64{9},
	}
	if err := c.ValidateMonotone(); err == nil {
		t.Fatal("interrupted > deferred not caught")
	}
}

func TestRankTreeKSmallest(t *testing.T) {
	// The tree covers a prefix of a longer series; the hours past it
	// (a 0 and a 2) must not take ranks.
	long := []float64{5, 3, 8, 3, 1, 0, 2}
	vals := long[:5]
	tr := newRankTree(vals, NewSeries(long).order)
	for i := range vals {
		tr.add(i)
	}
	if got := tr.kSmallestSum(3); !almost(got, 7) { // 1+3+3
		t.Fatalf("kSmallestSum(3) = %v, want 7", got)
	}
	tr.remove(4)                                     // drop the 1
	if got := tr.kSmallestSum(3); !almost(got, 11) { // 3+3+5
		t.Fatalf("after removal kSmallestSum(3) = %v, want 11", got)
	}
	if got := tr.kSmallestSum(0); got != 0 {
		t.Fatalf("kSmallestSum(0) = %v", got)
	}
}

func TestRankTreePanicsWhenUnderfull(t *testing.T) {
	vals := []float64{1, 2}
	tr := newRankTree(vals, NewSeries(vals).order)
	tr.add(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for k > present elements")
		}
	}()
	tr.kSmallestSum(2)
}

func BenchmarkSweepYearInterruptible(b *testing.B) {
	ci := randSeries(8760+8760+168, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(ci, 24, 8760, 8760); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepNaiveSmall(b *testing.B) {
	ci := randSeries(2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepNaive(ci, 24, 168, 1000); err != nil {
			b.Fatal(err)
		}
	}
}
