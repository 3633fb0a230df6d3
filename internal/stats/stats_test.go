package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"carbonshift/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4, 1e-12) {
		t.Fatalf("Variance = %v", got)
	}
	if got := StdDev(xs); !almost(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
	if got := Variance(nil); got != 0 {
		t.Fatalf("Variance(nil) = %v", got)
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{10, 10, 10}); got != 0 {
		t.Fatalf("CV of constant = %v", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Fatalf("CV of zeros = %v", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, sd 2
	if got := CV(xs); !almost(got, 0.4, 1e-12) {
		t.Fatalf("CV = %v", got)
	}
}

func TestDailyCV(t *testing.T) {
	// Two days: constant day (CV 0) and alternating day.
	day1 := make([]float64, 24)
	day2 := make([]float64, 24)
	for i := range day1 {
		day1[i] = 5
		day2[i] = 5 + float64(i%2)*2 // 5,7,5,7... mean 6, sd 1
	}
	hourly := append(day1, day2...)
	want := (0 + 1.0/6.0) / 2
	if got := DailyCV(hourly); !almost(got, want, 1e-12) {
		t.Fatalf("DailyCV = %v, want %v", got, want)
	}
	if got := DailyCV(day1[:23]); got != 0 {
		t.Fatalf("DailyCV of partial day = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
}

func TestMinMaxPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MinMax(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{9}, 50); got != 9 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2}, {25, 1}, {75, 3}, {99, 4}, {51, 3},
	}
	for _, c := range cases {
		if got := NearestRank(xs, c.p); got != c.want {
			t.Errorf("NearestRank(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := NearestRank([]float64{9}, 50); got != 9 {
		t.Errorf("single-element nearest rank = %v", got)
	}
}

// TestNearestRankTailSmallSamples pins the loadgen regression: for a
// small latency sample the reported p99 must be an observed value at
// or above every interpolated estimate — the old sort+index math
// under-reported the tail.
func TestNearestRankTailSmallSamples(t *testing.T) {
	// 10 samples, one slow outlier: the p99 *is* the outlier.
	xs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 500}
	if got := NearestRank(xs, 99); got != 500 {
		t.Fatalf("p99 of 10 samples = %v, want the max (500)", got)
	}
	if interp := Percentile(xs, 99); interp >= 500 {
		t.Fatalf("interpolated p99 = %v; expected it below the max (the bug this guards)", interp)
	}
	// With n=100 the nearest rank of p99 is the 99th sample.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := NearestRank(big, 99); got != 99 {
		t.Fatalf("p99 of 1..100 = %v, want 99", got)
	}
	if got := NearestRank(big, 95); got != 95 {
		t.Fatalf("p95 of 1..100 = %v, want 95", got)
	}
}

func TestNearestRankPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NearestRank(nil, 50) },
		func() { NearestRank([]float64{1}, -1) },
		func() { NearestRank([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestCI95(t *testing.T) {
	if got := CI95([]float64{5}); got != 0 {
		t.Fatalf("CI95 single = %v", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // sd 2, n 8
	want := 1.96 * 2 / math.Sqrt(8)
	if got := CI95(xs); !almost(got, want, 1e-12) {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
}

func TestSumBottomK(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := SumBottomK(xs, 2); got != 3 {
		t.Fatalf("SumBottomK(2) = %v", got)
	}
	if got := SumBottomK(xs, 0); got != 0 {
		t.Fatalf("SumBottomK(0) = %v", got)
	}
	if got := SumBottomK(xs, 5); got != 15 {
		t.Fatalf("SumBottomK(5) = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSumBottomKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SumBottomK([]float64{1}, 2)
}

func TestBottomKIndices(t *testing.T) {
	xs := []float64{5, 1, 4, 1, 3}
	got := BottomKIndices(xs, 3)
	want := []int{1, 3, 4} // ties broken by index
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BottomKIndices = %v, want %v", got, want)
		}
	}
}

// TestBottomKIndicesMatchesFullSort checks the heap selection against a
// full argsort with index tie-break: same indices, same order, for
// random and heavily tied inputs and every k from 0 to n.
func TestBottomKIndicesMatchesFullSort(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			if trial%2 == 0 {
				xs[i] = src.Uniform(-100, 100)
			} else {
				xs[i] = float64(src.Intn(4)) // heavy ties
			}
		}
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		sort.Slice(ref, func(a, b int) bool {
			if xs[ref[a]] != xs[ref[b]] {
				return xs[ref[a]] < xs[ref[b]]
			}
			return ref[a] < ref[b]
		})
		for k := 0; k <= n; k++ {
			got := BottomKIndices(xs, k)
			if !slices.Equal(got, ref[:k]) {
				t.Fatalf("xs=%v k=%d: BottomKIndices = %v, full sort = %v", xs, k, got, ref[:k])
			}
		}
	}
}

func TestQuickSumBottomKMatchesSort(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = math.Mod(v, 1e6)
		}
		k := int(kRaw) % (len(xs) + 1)
		got := SumBottomK(xs, k)
		idx := BottomKIndices(xs, k)
		var want float64
		for _, i := range idx {
			want += xs[i]
		}
		return almost(got, want, 1e-6*(1+math.Abs(want)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMinWindowSum(t *testing.T) {
	xs := []float64{4, 2, 1, 3, 5}
	start, sum := MinWindowSum(xs, 2)
	if start != 1 || sum != 3 {
		t.Fatalf("MinWindowSum = %d, %v", start, sum)
	}
	start, sum = MinWindowSum(xs, 5)
	if start != 0 || sum != 15 {
		t.Fatalf("full-window MinWindowSum = %d, %v", start, sum)
	}
	// Earliest start wins ties.
	start, _ = MinWindowSum([]float64{1, 1, 1, 1}, 2)
	if start != 0 {
		t.Fatalf("tie broken to %d, want 0", start)
	}
}

func TestMinWindowSumPanics(t *testing.T) {
	for _, f := range []func(){
		func() { MinWindowSum([]float64{1, 2}, 0) },
		func() { MinWindowSum([]float64{1, 2}, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestQuickMinWindowMatchesNaive(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%200 + 1
		k := int(kRaw)%n + 1
		src := rng.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Uniform(0, 100)
		}
		s1, v1 := MinWindowSum(xs, k)
		s2, v2 := MinWindowSumNaive(xs, k)
		return s1 == s2 && almost(v1, v2, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	var points []Point
	src := rng.New(42)
	centers := []Point{{0, 0}, {10, 10}, {-10, 10}}
	for _, c := range centers {
		for i := 0; i < 30; i++ {
			points = append(points, Point{c.X + src.Norm(0, 0.5), c.Y + src.Norm(0, 0.5)})
		}
	}
	res, err := KMeans(points, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All points generated from one center must share a cluster id.
	for g := 0; g < 3; g++ {
		first := res.Assign[g*30]
		for i := 1; i < 30; i++ {
			if res.Assign[g*30+i] != first {
				t.Fatalf("cluster %d split: %v", g, res.Assign[g*30:(g+1)*30])
			}
		}
	}
	// And the three groups must have distinct ids.
	if res.Assign[0] == res.Assign[30] || res.Assign[30] == res.Assign[60] || res.Assign[0] == res.Assign[60] {
		t.Fatalf("groups merged: %d %d %d", res.Assign[0], res.Assign[30], res.Assign[60])
	}
}

func TestKMeansDeterministic(t *testing.T) {
	points := []Point{{0, 0}, {1, 0}, {10, 0}, {11, 0}, {20, 0}, {21, 0}}
	a, err := KMeans(points, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(points, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("k-means not deterministic for fixed seed")
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans([]Point{{0, 0}}, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans([]Point{{0, 0}}, 2, 1); err == nil {
		t.Error("fewer points than clusters accepted")
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	points := []Point{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	res, err := KMeans(points, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 2 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := LinearFit(x, y)
	if !almost(slope, 2, 1e-12) || !almost(intercept, 1, 1e-12) {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	// Degenerate x: slope 0, intercept mean(y).
	slope, intercept = LinearFit([]float64{5, 5}, []float64{1, 3})
	if slope != 0 || intercept != 2 {
		t.Fatalf("degenerate fit = %v, %v", slope, intercept)
	}
}

func TestLinearFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	LinearFit([]float64{1}, []float64{1})
}

func BenchmarkSumBottomK(b *testing.B) {
	src := rng.New(1)
	xs := make([]float64, 8760)
	for i := range xs {
		xs[i] = src.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumBottomK(xs, 168)
	}
}

func BenchmarkMinWindowSum(b *testing.B) {
	src := rng.New(1)
	xs := make([]float64, 8760)
	for i := range xs {
		xs[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinWindowSum(xs, 168)
	}
}
