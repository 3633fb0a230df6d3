// Package stats provides the statistical primitives the analysis uses:
// descriptive statistics (mean, standard deviation, coefficient of
// variation, daily CV), percentiles, confidence intervals, bottom-k
// selection, and k-means++ clustering (used for the paper's Figure 3(b)
// trend grouping).
//
// Everything is implemented against plain []float64 so the package has
// no dependencies beyond the standard library.
package stats

import (
	"fmt"
	"math"
	"sort"

	"carbonshift/internal/rng"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (stddev / mean), the paper's
// variability metric. It returns 0 when the mean is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// DailyCV splits an hourly series into 24-hour windows and returns the
// mean of the per-day coefficients of variation. This is the "daily
// variability" of Figure 3: it isolates intra-day swings from seasonal
// drift. Trailing partial days are ignored.
func DailyCV(hourly []float64) float64 {
	days := len(hourly) / 24
	if days == 0 {
		return 0
	}
	var acc float64
	for d := 0; d < days; d++ {
		acc += CV(hourly[d*24 : (d+1)*24])
	}
	return acc / float64(days)
}

// MinMax returns the smallest and largest values in xs. It panics on an
// empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It panics on an empty
// slice or out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// NearestRank returns the p-th percentile (0 <= p <= 100) of xs under
// the explicit nearest-rank definition: the element at sorted position
// ⌈p/100 · n⌉ (1-based), with p=0 mapping to the minimum. Unlike
// Percentile's linear interpolation — the right estimator for smooth
// distributions like the carbon-intensity history the gate policies
// threshold — nearest-rank always returns an observed sample, which is
// what latency reporting needs: with n=10, the p99 is the maximum, not
// an interpolated value below every observation ever made. It panics
// on an empty slice or out-of-range p.
func NearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: NearestRank of empty slice")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return NearestRankSorted(sorted, p)
}

// NearestRankSorted is NearestRank over an already-sorted sample,
// skipping the defensive copy and sort — for callers reporting several
// percentiles of one sample.
func NearestRankSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: NearestRank of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean of xs under a normal approximation (1.96 · σ/√n).
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// SumBottomK returns the sum of the k smallest elements of xs. It uses
// an in-place quickselect over a copy, so it runs in O(n) expected time
// rather than O(n log n). It panics if k < 0 or k > len(xs).
//
// This is the kernel of the interruptible-job scheduler: an
// interruptible job of length k placed in a window runs during the k
// cheapest hours of that window.
func SumBottomK(xs []float64, k int) float64 {
	if k < 0 || k > len(xs) {
		panic(fmt.Sprintf("stats: SumBottomK k=%d of %d elements", k, len(xs)))
	}
	if k == 0 {
		return 0
	}
	if k == len(xs) {
		var s float64
		for _, v := range xs {
			s += v
		}
		return s
	}
	buf := make([]float64, len(xs))
	copy(buf, xs)
	selectK(buf, k)
	var s float64
	for _, v := range buf[:k] {
		s += v
	}
	return s
}

// BottomKIndices returns the indices of the k smallest elements of xs,
// in ascending order of value (ties broken by index). It is used where
// the schedule itself — not just its cost — is needed.
//
// One pass keeps the k best (value, index) keys in a bounded max-heap,
// so a horizon of n hours costs O(n log k) rather than a full sort;
// the result is exactly what a full sort would put first.
func BottomKIndices(xs []float64, k int) []int {
	if k < 0 || k > len(xs) {
		panic(fmt.Sprintf("stats: BottomKIndices k=%d of %d elements", k, len(xs)))
	}
	// before reports whether element a precedes element b.
	before := func(a, b int) bool {
		if xs[a] != xs[b] {
			return xs[a] < xs[b]
		}
		return a < b
	}
	h := make([]int, k)
	if k == 0 {
		return h
	}
	// siftDown restores the max-heap property of h[:n] below root i.
	siftDown := func(i, n int) {
		for {
			c := 2*i + 1
			if c >= n {
				return
			}
			if c+1 < n && before(h[c], h[c+1]) {
				c++
			}
			if !before(h[i], h[c]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := range h {
		h[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(i, k)
	}
	// Later indices lose ties, so only a strictly smaller value can
	// displace the heap's current worst key.
	for i := k; i < len(xs); i++ {
		if xs[i] < xs[h[0]] {
			h[0] = i
			siftDown(0, k)
		}
	}
	// Heapsort in place: move the worst remaining key to the back.
	for n := k - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(0, n)
	}
	return h
}

// selectK partially sorts buf so that buf[:k] holds the k smallest
// elements (in arbitrary order), using median-of-three quickselect.
func selectK(buf []float64, k int) {
	lo, hi := 0, len(buf)-1
	for lo < hi {
		p := partition(buf, lo, hi)
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func partition(buf []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three pivot to dodge adversarial orderings.
	if buf[mid] < buf[lo] {
		buf[mid], buf[lo] = buf[lo], buf[mid]
	}
	if buf[hi] < buf[lo] {
		buf[hi], buf[lo] = buf[lo], buf[hi]
	}
	if buf[hi] < buf[mid] {
		buf[hi], buf[mid] = buf[mid], buf[hi]
	}
	pivot := buf[mid]
	buf[mid], buf[hi-1] = buf[hi-1], buf[mid]
	i := lo
	for j := lo; j < hi-1; j++ {
		if buf[j] < pivot {
			buf[i], buf[j] = buf[j], buf[i]
			i++
		}
	}
	buf[i], buf[hi-1] = buf[hi-1], buf[i]
	return i
}

// MinWindowSum returns the starting index and sum of the contiguous
// window of length k with the smallest sum, computed with an O(n)
// sliding window. Ties resolve to the earliest start. It panics if
// k <= 0 or k > len(xs).
//
// This is the kernel of the deferrable-job scheduler: a non-
// interruptible job of length k with slack s starts at the cheapest
// k-window within the k+s-hour horizon (Bentley's minimum-sum
// subarray).
func MinWindowSum(xs []float64, k int) (start int, sum float64) {
	if k <= 0 || k > len(xs) {
		panic(fmt.Sprintf("stats: MinWindowSum k=%d of %d elements", k, len(xs)))
	}
	var cur float64
	for _, v := range xs[:k] {
		cur += v
	}
	best, bestStart := cur, 0
	for i := k; i < len(xs); i++ {
		cur += xs[i] - xs[i-k]
		// Strict inequality keeps the earliest start on ties; the
		// epsilon guards against float drift in long windows.
		if cur < best-1e-9 {
			best, bestStart = cur, i-k+1
		}
	}
	return bestStart, best
}

// MinWindowSumNaive is the O(n·k) rescan variant of MinWindowSum, kept
// for differential testing and the ablation benchmark.
func MinWindowSumNaive(xs []float64, k int) (start int, sum float64) {
	if k <= 0 || k > len(xs) {
		panic(fmt.Sprintf("stats: MinWindowSumNaive k=%d of %d elements", k, len(xs)))
	}
	best := math.Inf(1)
	bestStart := 0
	for i := 0; i+k <= len(xs); i++ {
		var cur float64
		for _, v := range xs[i : i+k] {
			cur += v
		}
		if cur < best-1e-9 {
			best, bestStart = cur, i
		}
	}
	return bestStart, best
}

// Point is a 2-D observation for clustering and fitting.
type Point struct{ X, Y float64 }

// KMeansResult holds cluster assignments and centroids.
type KMeansResult struct {
	// Assign maps each input point index to its cluster id [0, K).
	Assign []int
	// Centroids are the final cluster centers.
	Centroids []Point
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// KMeans clusters the points into k clusters using k-means++ seeding
// (Arthur & Vassilvitskii 2007) followed by Lloyd iterations, matching
// the heuristic the paper uses to group regions by their 2020→2022
// carbon trend. The run is deterministic for a given seed.
func KMeans(points []Point, k int, seed uint64) (KMeansResult, error) {
	if k <= 0 {
		return KMeansResult{}, fmt.Errorf("stats: k-means with k=%d", k)
	}
	if len(points) < k {
		return KMeansResult{}, fmt.Errorf("stats: k-means with %d points < k=%d", len(points), k)
	}
	src := rng.New(seed)

	// k-means++ seeding: first centroid uniform, then each next
	// centroid sampled with probability proportional to squared
	// distance from the nearest existing centroid.
	centroids := make([]Point, 0, k)
	centroids = append(centroids, points[src.Intn(len(points))])
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			d2[i] = nearestDist2(p, centroids)
			total += d2[i]
		}
		if total == 0 {
			// All points coincide with existing centroids; any choice
			// works.
			centroids = append(centroids, points[src.Intn(len(points))])
			continue
		}
		centroids = append(centroids, points[src.Pick(d2)])
	}

	assign := make([]int, len(points))
	const maxIter = 200
	iter := 0
	for ; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := dist2(p, cent); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		var sx, sy = make([]float64, k), make([]float64, k)
		counts := make([]int, k)
		for i, p := range points {
			c := assign[i]
			sx[c] += p.X
			sy[c] += p.Y
			counts[c]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster on the farthest point.
				far, farD := 0, -1.0
				for i, p := range points {
					if d := nearestDist2(p, centroids); d > farD {
						far, farD = i, d
					}
				}
				centroids[c] = points[far]
				continue
			}
			centroids[c] = Point{sx[c] / float64(counts[c]), sy[c] / float64(counts[c])}
		}
	}
	return KMeansResult{Assign: assign, Centroids: centroids, Iterations: iter}, nil
}

func dist2(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

func nearestDist2(p Point, cs []Point) float64 {
	best := math.Inf(1)
	for _, c := range cs {
		if d := dist2(p, c); d < best {
			best = d
		}
	}
	return best
}

// LinearFit returns the least-squares slope and intercept of y against
// x. It panics if the slices differ in length or have fewer than two
// points.
func LinearFit(x, y []float64) (slope, intercept float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic("stats: LinearFit needs two equal-length series of >= 2 points")
	}
	mx, my := Mean(x), Mean(y)
	var num, den float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	if den == 0 {
		return 0, my
	}
	slope = num / den
	return slope, my - slope*mx
}
