// Package temporal implements the paper's temporal workload-shifting
// policies (§3.2.1, §5.2) over hourly carbon-intensity series.
//
// A batch job of length L hours arriving at hour a with slack s may run
// anywhere inside the horizon [a, a+L+s):
//
//   - Baseline (non-deferrable): run immediately; cost is the sum of
//     the L intensities from a.
//   - Deferrable: choose the contiguous L-hour window with minimum
//     cumulative intensity inside the horizon (the k-element
//     minimum-sum subarray).
//   - Interruptible (and deferrable): run during the L cheapest hours
//     of the horizon, contiguous or not (the k smallest elements).
//
// Jobs draw 1 kW, so costs are directly in g·CO₂eq. The paper assumes
// clairvoyance and zero suspend/resume and defer overheads to obtain
// upper bounds; so does this package.
//
// Besides single-job evaluation, the package provides full arrival
// sweeps ("all 8760 potential start times over a year") with
// asymptotically efficient algorithms: prefix sums for baselines, a
// monotonic-deque sliding-window minimum for deferral, and a
// Fenwick-tree order-statistic window for interruption, so a whole
// sweep costs O(n log n) instead of the naive O(n²).
package temporal

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"carbonshift/internal/stats"
)

// Result holds the carbon cost of one job under the three policies.
type Result struct {
	// Baseline is the no-flexibility cost, in g·CO₂eq.
	Baseline float64
	// Deferred is the optimal deferred (contiguous) cost.
	Deferred float64
	// Interrupted is the optimal interruptible cost. It never exceeds
	// Deferred, which never exceeds Baseline.
	Interrupted float64
	// Start is the deferred policy's chosen start hour.
	Start int
}

// DeferSaving returns the absolute saving from deferral alone.
func (r Result) DeferSaving() float64 { return r.Baseline - r.Deferred }

// InterruptSaving returns the additional saving from interruption on
// top of deferral.
func (r Result) InterruptSaving() float64 { return r.Deferred - r.Interrupted }

// TotalSaving returns the saving of the combined policy vs baseline.
func (r Result) TotalSaving() float64 { return r.Baseline - r.Interrupted }

func checkJob(n, arrival, length, slack int) error {
	if length < 1 {
		return fmt.Errorf("temporal: job length %d must be >= 1 hour", length)
	}
	if slack < 0 {
		return fmt.Errorf("temporal: negative slack %d", slack)
	}
	if arrival < 0 {
		return fmt.Errorf("temporal: negative arrival %d", arrival)
	}
	if arrival+length+slack > n {
		return fmt.Errorf("temporal: job horizon [%d, %d) overruns trace of %d hours",
			arrival, arrival+length+slack, n)
	}
	return nil
}

// Evaluate computes all three policy costs for a single job on the
// hourly intensity series ci.
func Evaluate(ci []float64, arrival, length, slack int) (Result, error) {
	if err := checkJob(len(ci), arrival, length, slack); err != nil {
		return Result{}, err
	}
	horizon := ci[arrival : arrival+length+slack]
	var baseline float64
	for _, v := range horizon[:length] {
		baseline += v
	}
	start, deferred := stats.MinWindowSum(horizon, length)
	interrupted := stats.SumBottomK(horizon, length)
	return Result{
		Baseline:    baseline,
		Deferred:    deferred,
		Interrupted: interrupted,
		Start:       arrival + start,
	}, nil
}

// Schedule returns the exact hours an interruptible job runs (ascending
// hour indices into ci), for callers that need the placement itself.
func Schedule(ci []float64, arrival, length, slack int) ([]int, error) {
	if err := checkJob(len(ci), arrival, length, slack); err != nil {
		return nil, err
	}
	horizon := ci[arrival : arrival+length+slack]
	rel := stats.BottomKIndices(horizon, length)
	out := make([]int, len(rel))
	for i, r := range rel {
		out[i] = arrival + r
	}
	sort.Ints(out)
	return out, nil
}

// Costs bundles the per-arrival cost series of a sweep: index i is the
// cost of a job arriving at hour i.
type Costs struct {
	Baseline    []float64
	Deferred    []float64
	Interrupted []float64
}

// Sweep computes the three policy costs for every arrival hour in
// [0, arrivals). The horizon of the final arrival must fit in the
// trace: arrivals + length + slack <= len(ci).
func Sweep(ci []float64, length, slack, arrivals int) (Costs, error) {
	return NewSeries(ci).Sweep(length, slack, arrivals)
}

// Series is a trace prepared for many sweeps: its prefix sums and one
// argsort of its values, shared by every (length, slack) cell swept on
// it. A Series is read-only after construction, so concurrent sweeps
// may share one.
type Series struct {
	ci     []float64
	prefix []float64
	// order lists the hours of ci by ascending (value, hour).
	order []int32
}

// NewSeries prepares ci for sweeping. It panics if ci has more hours
// than an int32 can index.
func NewSeries(ci []float64) *Series {
	if len(ci) > math.MaxInt32 {
		panic(fmt.Sprintf("temporal: series of %d hours exceeds int32 indexing", len(ci)))
	}
	order := make([]int32, len(ci))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if ci[a] != ci[b] {
			if ci[a] < ci[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	return &Series{ci: ci, prefix: prefixSums(ci), order: order}
}

// Sweep computes the three policy costs for every arrival hour in
// [0, arrivals), exactly as the package-level Sweep does.
func (s *Series) Sweep(length, slack, arrivals int) (Costs, error) {
	if arrivals < 1 {
		return Costs{}, fmt.Errorf("temporal: sweep needs >= 1 arrival, got %d", arrivals)
	}
	if err := checkJob(len(s.ci), arrivals-1, length, slack); err != nil {
		return Costs{}, err
	}
	return Costs{
		Baseline:    s.sweepBaseline(length, arrivals),
		Deferred:    s.sweepDeferred(length, slack, arrivals),
		Interrupted: s.sweepInterrupted(length, slack, arrivals),
	}, nil
}

// sweepBaseline computes immediate-run costs via prefix sums.
func (s *Series) sweepBaseline(length, arrivals int) []float64 {
	out := make([]float64, arrivals)
	for a := 0; a < arrivals; a++ {
		out[a] = s.prefix[a+length] - s.prefix[a]
	}
	return out
}

// sweepDeferred computes optimal contiguous placements for every
// arrival in O(n) using a monotonic deque over the window sums: the
// cost at arrival a is min over start s in [a, a+slack] of
// sum(ci[s:s+length]).
func (s *Series) sweepDeferred(length, slack, arrivals int) []float64 {
	prefix := s.prefix
	numStarts := len(s.ci) - length + 1
	winSum := func(s int) float64 { return prefix[s+length] - prefix[s] }

	out := make([]float64, arrivals)
	// deque holds candidate start indices with increasing window sums.
	deque := make([]int, 0, slack+1)
	push := func(s int) {
		for len(deque) > 0 && winSum(deque[len(deque)-1]) >= winSum(s) {
			deque = deque[:len(deque)-1]
		}
		deque = append(deque, s)
	}
	// Pre-fill the first arrival's start range [0, slack].
	for s := 0; s <= slack && s < numStarts; s++ {
		push(s)
	}
	for a := 0; a < arrivals; a++ {
		// Evict starts before the arrival.
		for len(deque) > 0 && deque[0] < a {
			deque = deque[1:]
		}
		out[a] = winSum(deque[0])
		// Admit the start entering the next arrival's range.
		if next := a + 1 + slack; next < numStarts {
			push(next)
		}
	}
	return out
}

// sweepInterrupted computes the sum of the `length` cheapest hours in
// each sliding horizon of length+slack hours, for every arrival, using
// a Fenwick tree over value ranks (O(n log n) total).
func (s *Series) sweepInterrupted(length, slack, arrivals int) []float64 {
	window := length + slack
	needed := arrivals + window - 1 // hours the sweep touches
	if needed > len(s.ci) {
		needed = len(s.ci)
	}
	tree := newRankTree(s.ci[:needed], s.order)
	out := make([]float64, arrivals)
	for h := 0; h < window; h++ {
		tree.add(h)
	}
	out[0] = tree.kSmallestSum(length)
	for a := 1; a < arrivals; a++ {
		tree.remove(a - 1)
		tree.add(a + window - 1)
		out[a] = tree.kSmallestSum(length)
	}
	return out
}

func prefixSums(xs []float64) []float64 {
	out := make([]float64, len(xs)+1)
	for i, v := range xs {
		out[i+1] = out[i] + v
	}
	return out
}

// rankTree is a Fenwick (binary indexed) tree over the ranks of a fixed
// value universe, tracking the count and sum of currently present
// elements per rank. It supports O(log n) insertion, removal, and
// "sum of the k smallest present values" queries.
type rankTree struct {
	// rank[i] is the 1-based rank of element i in the sorted universe.
	rank []int
	// valAt[r] is the value with rank r (1-based).
	valAt []float64
	cnt   []int
	sum   []float64
	size  int // number of ranks
	top   int // largest power of two <= size, for the descent
	vals  []float64
}

// newRankTree builds an empty tree over vals. order must list the hours
// of a series that vals is a prefix of, by ascending (value, hour);
// keeping the hours below len(vals) gives exactly the ranks a fresh
// sort of vals would, in O(len(order)).
func newRankTree(vals []float64, order []int32) *rankTree {
	n := len(vals)
	t := &rankTree{
		rank:  make([]int, n),
		valAt: make([]float64, n+1),
		cnt:   make([]int, n+1),
		sum:   make([]float64, n+1),
		size:  n,
		vals:  vals,
	}
	r := 0
	for _, i := range order {
		if int(i) < n {
			r++
			t.rank[i] = r
			t.valAt[r] = vals[i]
		}
	}
	t.top = 1
	for t.top*2 <= n {
		t.top *= 2
	}
	return t
}

func (t *rankTree) add(i int)    { t.update(t.rank[i], 1, t.vals[i]) }
func (t *rankTree) remove(i int) { t.update(t.rank[i], -1, -t.vals[i]) }

func (t *rankTree) update(r, dc int, dv float64) {
	for ; r <= t.size; r += r & -r {
		t.cnt[r] += dc
		t.sum[r] += dv
	}
}

// kSmallestSum returns the sum of the k smallest present values. It
// panics if fewer than k values are present (a programming error in the
// sweep logic).
func (t *rankTree) kSmallestSum(k int) float64 {
	if k == 0 {
		return 0
	}
	pos, got := 0, 0
	var s float64
	for step := t.top; step > 0; step >>= 1 {
		next := pos + step
		if next <= t.size && got+t.cnt[next] < k {
			got += t.cnt[next]
			s += t.sum[next]
			pos = next
		}
	}
	if pos+1 > t.size {
		panic("temporal: rank tree holds fewer elements than requested")
	}
	// Ranks are unique per element, but duplicates of a value occupy
	// adjacent ranks; walk forward over present ranks for the
	// remainder.
	for r := pos + 1; got < k; r++ {
		if r > t.size {
			panic("temporal: rank tree holds fewer elements than requested")
		}
		c := t.cntAt(r)
		if c == 0 {
			continue
		}
		got++
		s += t.valAt[r]
	}
	return s
}

// cntAt returns the presence count at a single rank (0 or 1 in this
// usage).
func (t *rankTree) cntAt(r int) int {
	c := 0
	for i := r; i > 0; i -= i & -i {
		c += t.cnt[i]
	}
	for i := r - 1; i > 0; i -= i & -i {
		c -= t.cnt[i]
	}
	return c
}

// Summary aggregates a cost series across arrivals.
type Summary struct {
	Mean float64
	Std  float64
	CI95 float64
}

// Summarize reduces a per-arrival cost series.
func Summarize(costs []float64) Summary {
	return Summary{
		Mean: stats.Mean(costs),
		Std:  stats.StdDev(costs),
		CI95: stats.CI95(costs),
	}
}

// MeanSavings condenses a sweep into the paper's reporting quantities:
// mean absolute savings of deferral vs baseline and interruption vs
// deferral, plus the mean baseline, all in g·CO₂eq per job.
type MeanSavings struct {
	Baseline        float64
	DeferSaving     float64
	InterruptSaving float64
}

// Reduce averages a Costs bundle into MeanSavings.
func (c Costs) Reduce() MeanSavings {
	n := len(c.Baseline)
	if n == 0 {
		return MeanSavings{}
	}
	var base, def, intr float64
	for i := 0; i < n; i++ {
		base += c.Baseline[i]
		def += c.Baseline[i] - c.Deferred[i]
		intr += c.Deferred[i] - c.Interrupted[i]
	}
	f := float64(n)
	return MeanSavings{Baseline: base / f, DeferSaving: def / f, InterruptSaving: intr / f}
}

// SweepNaive evaluates every arrival with the O(n·k) single-job code.
// It exists for differential tests and the ablation benchmarks.
func SweepNaive(ci []float64, length, slack, arrivals int) (Costs, error) {
	if arrivals < 1 {
		return Costs{}, fmt.Errorf("temporal: sweep needs >= 1 arrival, got %d", arrivals)
	}
	if err := checkJob(len(ci), arrivals-1, length, slack); err != nil {
		return Costs{}, err
	}
	out := Costs{
		Baseline:    make([]float64, arrivals),
		Deferred:    make([]float64, arrivals),
		Interrupted: make([]float64, arrivals),
	}
	for a := 0; a < arrivals; a++ {
		r, err := Evaluate(ci, a, length, slack)
		if err != nil {
			return Costs{}, err
		}
		out.Baseline[a] = r.Baseline
		out.Deferred[a] = r.Deferred
		out.Interrupted[a] = r.Interrupted
	}
	return out, nil
}

// ValidateMonotone checks the policy-dominance invariant on a sweep:
// interrupted <= deferred <= baseline for every arrival (within float
// tolerance). It returns the first violation, if any.
func (c Costs) ValidateMonotone() error {
	const eps = 1e-6
	for i := range c.Baseline {
		if c.Deferred[i] > c.Baseline[i]+eps {
			return fmt.Errorf("temporal: deferred %v > baseline %v at arrival %d",
				c.Deferred[i], c.Baseline[i], i)
		}
		if c.Interrupted[i] > c.Deferred[i]+eps {
			return fmt.Errorf("temporal: interrupted %v > deferred %v at arrival %d",
				c.Interrupted[i], c.Deferred[i], i)
		}
		if math.IsNaN(c.Interrupted[i]) {
			return fmt.Errorf("temporal: NaN cost at arrival %d", i)
		}
	}
	return nil
}
