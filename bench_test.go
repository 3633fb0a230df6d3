package carbonshift_test

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablations of the algorithmic choices DESIGN.md calls
// out. Each figure benchmark runs the corresponding experiment on the
// shared full dataset and reports the resulting rows via b.Log on the
// first iteration, so `go test -bench=. -benchmem` both regenerates
// and times every result.
//
// Note on caching: the Lab memoizes temporal sweeps, so the first
// iteration of the Figure 7-10 family pays the full cost and later
// iterations measure the assembled-table path. The ablation benchmarks
// below measure the raw kernels without caching.

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carbonshift/internal/core"
	"carbonshift/internal/fft"
	"carbonshift/internal/rng"
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/spatial"
	"carbonshift/internal/stats"
	"carbonshift/internal/temporal"
	"carbonshift/internal/trace"
	"carbonshift/internal/wal"
	"carbonshift/internal/workload"
)

var (
	labOnce sync.Once
	lab     *core.Lab
)

func sharedLab(b *testing.B) *core.Lab {
	b.Helper()
	labOnce.Do(func() {
		var err error
		lab, err = core.NewLab(core.Options{Sim: simgrid.Config{Seed: 1}})
		if err != nil {
			panic(err)
		}
	})
	return lab
}

func benchExperiment(b *testing.B, id string) {
	l := sharedLab(b)
	exp, err := core.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := exp.Run(context.Background(), l)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// --- Serial vs parallel engine benchmarks ---
//
// One lab per worker count so each carries the experiment engine bound
// under test; all of them share the process-level simgrid trace cache,
// so only the first pays dataset generation. The benchmarked figures
// (fig4, the global periodicity scan, and the fig11a/fig12 what-ifs)
// memoize nothing inside the Lab, so every iteration re-does the full
// cell fan-out and the ratio Serial/Parallel8 is the engine speedup.

var (
	workerLabsMu sync.Mutex
	workerLabs   = map[int]*core.Lab{}
)

func labWithWorkers(b *testing.B, workers int) *core.Lab {
	b.Helper()
	workerLabsMu.Lock()
	defer workerLabsMu.Unlock()
	if l, ok := workerLabs[workers]; ok {
		return l
	}
	l, err := core.NewLab(core.Options{Sim: simgrid.Config{Seed: 1}, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	workerLabs[workers] = l
	return l
}

func benchExperimentWorkers(b *testing.B, id string, workers int) {
	l := labWithWorkers(b, workers)
	exp, err := core.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(context.Background(), l); err != nil {
			b.Fatal(err)
		}
	}
}

// Global analysis (Figure 4): one FFT-heavy cell per region.
func BenchmarkEngineFig4Serial(b *testing.B)    { benchExperimentWorkers(b, "fig4", 1) }
func BenchmarkEngineFig4Parallel8(b *testing.B) { benchExperimentWorkers(b, "fig4", 8) }

// What-if sweep (Figure 11a): one mixed-fleet evaluation per cell.
func BenchmarkEngineFig11aSerial(b *testing.B)    { benchExperimentWorkers(b, "fig11a", 1) }
func BenchmarkEngineFig11aParallel8(b *testing.B) { benchExperimentWorkers(b, "fig11a", 8) }

// What-if sweep (Figure 12): one combined-shifting destination per cell.
func BenchmarkEngineFig12Serial(b *testing.B)    { benchExperimentWorkers(b, "fig12", 1) }
func BenchmarkEngineFig12Parallel8(b *testing.B) { benchExperimentWorkers(b, "fig12", 8) }

// --- One benchmark per paper table/figure ---

func BenchmarkFig1_TraceAndMix(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig3a_MeanCV(b *testing.B)           { benchExperiment(b, "fig3a") }
func BenchmarkFig3b_ChangeOverTime(b *testing.B)   { benchExperiment(b, "fig3b") }
func BenchmarkFig4_Periodicity(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5a_InfiniteCapacity(b *testing.B) { benchExperiment(b, "fig5a") }
func BenchmarkFig5b_HalfIdle(b *testing.B)         { benchExperiment(b, "fig5b") }
func BenchmarkFig5c_IdleSweep(b *testing.B)        { benchExperiment(b, "fig5c") }
func BenchmarkFig6a_CapacityLatency(b *testing.B)  { benchExperiment(b, "fig6a") }
func BenchmarkFig6b_OneVsInf(b *testing.B)         { benchExperiment(b, "fig6b") }
func BenchmarkFig7_Defer(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkFig8_Interrupt(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig9_Combined(b *testing.B)          { benchExperiment(b, "fig9") }
func BenchmarkFig10_Distributions(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig10d_SlackSweep(b *testing.B)      { benchExperiment(b, "fig10d") }
func BenchmarkFig11a_Mixed(b *testing.B)           { benchExperiment(b, "fig11a") }
func BenchmarkFig11b_PredictionError(b *testing.B) { benchExperiment(b, "fig11b") }
func BenchmarkFig11c_GreenerTemporal(b *testing.B) { benchExperiment(b, "fig11c") }
func BenchmarkFig11d_GreenerSpatial(b *testing.B)  { benchExperiment(b, "fig11d") }
func BenchmarkFig12_CombinedShifting(b *testing.B) { benchExperiment(b, "fig12") }

// Extensions beyond the paper's figures (see DESIGN.md).

func BenchmarkExtForecast(b *testing.B)   { benchExperiment(b, "ext-forecast") }
func BenchmarkExtContention(b *testing.B) { benchExperiment(b, "ext-contention") }
func BenchmarkExtOverhead(b *testing.B)   { benchExperiment(b, "ext-overhead") }

// BenchmarkTable1_WorkloadSweep covers Table 1's configuration matrix:
// a full single-region sweep across every job length and slack choice.
func BenchmarkTable1_WorkloadSweep(b *testing.B) {
	l := sharedLab(b)
	tr := l.Set.MustGet("DE")
	lengths := []int{1, 6, 12, 24, 48, 96, 168}
	slacks := []int{24, 168, 576, 720, 8760}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, slack := range slacks {
			for _, length := range lengths {
				arrivals := l.Set.Len() - length - slack
				if arrivals > 8760 {
					arrivals = 8760
				}
				if _, err := temporal.Sweep(tr.CI, length, slack, arrivals); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// One region's Figure 7–9 grid (7 lengths × one-year and 24-hour
// slack): every cell swept on one temporal.Series, as Lab.warmCells
// does, vs a fresh temporal.Sweep, and so a fresh sort, per cell.
func BenchmarkRegionGridSharedSeries(b *testing.B) { benchRegionGrid(b, true) }
func BenchmarkRegionGridFreshSweep(b *testing.B)   { benchRegionGrid(b, false) }

func benchRegionGrid(b *testing.B, shared bool) {
	l := sharedLab(b)
	ci := l.Set.MustGet("DE").CI
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ser *temporal.Series
		if shared {
			ser = temporal.NewSeries(ci)
		}
		for _, slack := range []int{workload.Slack1Y, workload.Slack24H} {
			for _, length := range workload.BatchLengths {
				arrivals := min(8760, len(ci)-length-slack)
				var err error
				if shared {
					_, err = ser.Sweep(length, slack, arrivals)
				} else {
					_, err = temporal.Sweep(ci, length, slack, arrivals)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// --- Dataset generation ---

func BenchmarkDatasetGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simgrid.GenerateAll(simgrid.Config{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

func yearSeries(b *testing.B) []float64 {
	b.Helper()
	src := rng.New(1)
	ci := make([]float64, 8760)
	for i := range ci {
		ci[i] = 300 + 120*math.Sin(2*math.Pi*float64(i)/24) + src.Uniform(-30, 30)
	}
	return ci
}

// Deferral window search: O(n) sliding window vs O(n·k) rescan.
func BenchmarkAblation_DeferWindowSliding(b *testing.B) {
	ci := yearSeries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.MinWindowSum(ci, 168)
	}
}

func BenchmarkAblation_DeferWindowNaive(b *testing.B) {
	ci := yearSeries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.MinWindowSumNaive(ci, 168)
	}
}

// Interruption slot selection: quickselect for the cost alone.
func BenchmarkAblation_MinKQuickselect(b *testing.B) {
	ci := yearSeries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.SumBottomK(ci, 168)
	}
}

// Interruption slot placement (the indices, not just the cost): the
// bounded-heap selection stats.BottomKIndices uses vs a full argsort.
func BenchmarkAblation_MinKHeapSelect(b *testing.B) {
	ci := yearSeries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := stats.BottomKIndices(ci, 168)
		var s float64
		for _, j := range idx {
			s += ci[j]
		}
		_ = s
	}
}

func BenchmarkAblation_MinKFullSort(b *testing.B) {
	ci := yearSeries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := make([]int, len(ci))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(x, y int) bool {
			if ci[idx[x]] != ci[idx[y]] {
				return ci[idx[x]] < ci[idx[y]]
			}
			return idx[x] < idx[y]
		})
		var s float64
		for _, j := range idx[:168] {
			s += ci[j]
		}
		_ = s
	}
}

// Arrival sweeps: the incremental Fenwick/deque sweep vs re-evaluating
// every arrival from scratch.
func BenchmarkAblation_SweepIncremental(b *testing.B) {
	ci := yearSeries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := temporal.Sweep(ci, 24, 168, 4000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_SweepNaive(b *testing.B) {
	ci := yearSeries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := temporal.SweepNaive(ci, 24, 168, 4000); err != nil {
			b.Fatal(err)
		}
	}
}

// ∞-migration argmin: precomputed envelope vs per-hour scans.
func BenchmarkAblation_ArgminEnvelope(b *testing.B) {
	l := sharedLab(b)
	codes := l.Set.Regions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		min, err := spatial.MinSeries(l.Set, codes)
		if err != nil {
			b.Fatal(err)
		}
		_ = min
	}
}

func BenchmarkAblation_ArgminPerHourScan(b *testing.B) {
	l := sharedLab(b)
	codes := l.Set.Regions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One year of hourly argmin scans through the Set interface.
		if _, err := spatial.InfMigrationCost(l.Set, codes, 0, 8760); err != nil {
			b.Fatal(err)
		}
	}
}

// FFT for periodicity: Bluestein at the exact series length vs
// zero-padding to a power of two.
func BenchmarkAblation_FFTBluesteinExact(b *testing.B) {
	ci := yearSeries(b)
	cx := make([]complex128, len(ci))
	for i, v := range ci {
		cx[i] = complex(v, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.FFT(cx)
	}
}

func BenchmarkAblation_FFTPaddedRadix2(b *testing.B) {
	ci := yearSeries(b)
	padded := make([]complex128, 16384)
	for i, v := range ci {
		padded[i] = complex(v, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.FFT(padded)
	}
}

// --- Online scheduling (internal/schedd + the incremental Fleet) ---

// schedWorld builds the two-region diurnal world used by the sched and
// schedd tests, sized for year-scale stepping.
func schedWorld(b *testing.B, hours int) (*trace.Set, []sched.Cluster) {
	b.Helper()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	clean := make([]float64, hours)
	dirty := make([]float64, hours)
	for h := 0; h < hours; h++ {
		clean[h] = 20
		dirty[h] = 200 + 600*float64(h%24)/24
	}
	set, err := trace.NewSet([]*trace.Trace{
		trace.New("CLEAN", t0, clean),
		trace.New("DIRTY", t0, dirty),
	})
	if err != nil {
		b.Fatal(err)
	}
	return set, []sched.Cluster{{Region: "CLEAN", Slots: 100}, {Region: "DIRTY", Slots: 100}}
}

// BenchmarkFleetStep measures one incremental tick of the simulator
// with a realistic outstanding-job population — the unit of work behind
// every schedd request and every hour of sched.Run.
func BenchmarkFleetStep(b *testing.B) {
	const hours = 24 * 365
	set, cl := schedWorld(b, hours)
	jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs: 2000, ArrivalSpan: hours - 10*24, SlackHours: 48,
		InterruptibleFrac: 0.8, MigratableFrac: 0.5,
		Origins: []string{"CLEAN", "DIRTY"}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	mkFleet := func() *sched.Fleet {
		f, err := sched.NewFleet(set, cl, sched.SpatioTemporal{Percentile: 40, Window: 48}, hours)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Submit(jobs...); err != nil {
			b.Fatal(err)
		}
		return f
	}
	fleet := mkFleet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fleet.Done() {
			b.StopTimer()
			fleet = mkFleet()
			b.StartTimer()
		}
		if err := fleet.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// schedWorldN builds an nRegions-region world with staggered diurnal
// cycles, sized for the sharded-fleet benchmarks.
func schedWorldN(b *testing.B, hours, nRegions, slots int) (*trace.Set, []sched.Cluster) {
	b.Helper()
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	var traces []*trace.Trace
	var cl []sched.Cluster
	for r := 0; r < nRegions; r++ {
		ci := make([]float64, hours)
		base := 40 + 80*float64(r)
		for h := 0; h < hours; h++ {
			ci[h] = base + 250*(1+math.Sin(2*math.Pi*float64(h+3*r)/24))
		}
		code := fmt.Sprintf("R%02d", r)
		traces = append(traces, trace.New(code, t0, ci))
		cl = append(cl, sched.Cluster{Region: code, Slots: slots})
	}
	set, err := trace.NewSet(traces)
	if err != nil {
		b.Fatal(err)
	}
	return set, cl
}

// BenchmarkShardedFleetStep is BenchmarkFleetStep's sharded twin: the
// same per-tick unit of work over an 8-region world, stepped by an
// 8-shard fleet. Compare against BenchmarkFleetStep8Regions (the
// serial fleet on the identical world) for the shard speedup at
// moderate population.
func BenchmarkShardedFleetStep(b *testing.B) {
	benchFleetStepN(b, 2000, 8)
}

// BenchmarkFleetStep8Regions is the serial baseline on the same world
// BenchmarkShardedFleetStep uses.
func BenchmarkFleetStep8Regions(b *testing.B) {
	benchFleetStepN(b, 2000, 0)
}

// fleetStepper is the Step loop both fleet forms share, so the serial
// and sharded benchmarks construct their worlds through one helper.
type fleetStepper interface {
	Done() bool
	Step() error
	Submit(...sched.Job) error
}

// benchStepFleet runs b.N Steps, rebuilding via mk (with the timer
// paused) whenever a fleet exhausts its horizon.
func benchStepFleet(b *testing.B, mk func() fleetStepper) {
	fleet := mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fleet.Done() {
			b.StopTimer()
			fleet = mk()
			b.StartTimer()
		}
		if err := fleet.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// mkStepFleet builds a submitted fleet over the given world: shards ==
// 0 means the serial Fleet, otherwise a ShardedFleet with that many
// shards.
func mkStepFleet(b *testing.B, set *trace.Set, cl []sched.Cluster,
	policy sched.Policy, hours, shards int, stream []sched.Job) fleetStepper {
	b.Helper()
	var f fleetStepper
	var err error
	if shards == 0 {
		f, err = sched.NewFleet(set, cl, policy, hours)
	} else {
		f, err = sched.NewShardedFleet(set, cl, policy, hours, shards)
	}
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Submit(stream...); err != nil {
		b.Fatal(err)
	}
	return f
}

// benchFleetStepN steps a fleet over an 8-region year with the given
// job population.
func benchFleetStepN(b *testing.B, jobs, shards int) {
	const hours = 24 * 365
	set, cl := schedWorldN(b, hours, 8, 100)
	var origins []string
	for _, c := range cl {
		origins = append(origins, c.Region)
	}
	stream, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs: jobs, ArrivalSpan: hours - 10*24, SlackHours: 48,
		InterruptibleFrac: 0.8, MigratableFrac: 0.5,
		Origins: origins, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	policy := sched.SpatioTemporal{Percentile: 40, Window: 48}
	benchStepFleet(b, func() fleetStepper {
		return mkStepFleet(b, set, cl, policy, hours, shards, stream)
	})
}

// --- 1M-job scale pair ---
//
// The online-path scale benchmark of DESIGN.md's sharded-fleet
// section: one million jobs spread over a year, serial Fleet vs
// 8-shard ShardedFleet. The serial fleet rescans every submitted job
// four times per tick; the sharded fleet scans only arrived,
// uncompleted jobs, in parallel — the ratio of these two benchmarks is
// the online Step-throughput multiplier recorded in BENCH_*.json.

var (
	scaleOnce sync.Once
	scaleJobs []sched.Job
)

func scaleStream(b *testing.B, origins []string) []sched.Job {
	b.Helper()
	scaleOnce.Do(func() {
		const hours = 24 * 365
		jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
			Jobs: 1_000_000, ArrivalSpan: hours - 14*24, SlackHours: 48,
			Dist:              workload.DistAzure,
			InterruptibleFrac: 0.8, MigratableFrac: 0.5,
			Origins: origins, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		for i := range jobs {
			if jobs[i].Length > 24 {
				jobs[i].Length = 24
			}
		}
		scaleJobs = jobs
	})
	return scaleJobs
}

func benchScaleFleetStep(b *testing.B, shards int) {
	const hours = 24 * 365
	set, cl := schedWorldN(b, hours, 8, 2000)
	var origins []string
	for _, c := range cl {
		origins = append(origins, c.Region)
	}
	stream := scaleStream(b, origins)
	benchStepFleet(b, func() fleetStepper {
		return mkStepFleet(b, set, cl, sched.GreenestFirst{}, hours, shards, stream)
	})
}

// BenchmarkScaleFleetStep1MSerial steps the serial Fleet under one
// million submitted jobs.
func BenchmarkScaleFleetStep1MSerial(b *testing.B) { benchScaleFleetStep(b, 0) }

// BenchmarkScaleFleetStep1MSharded8 steps the 8-shard ShardedFleet
// under the identical one-million-job world; the acceptance bar is
// ≥ 3× the serial Step throughput.
func BenchmarkScaleFleetStep1MSharded8(b *testing.B) { benchScaleFleetStep(b, 8) }

// BenchmarkScheddSubmit measures the full HTTP submission path — JSON
// over a real TCP connection into the fleet — which bounds the job
// throughput cmd/loadgen can drive.
func BenchmarkScheddSubmit(b *testing.B) {
	benchScheddSubmit(b, schedd.Config{
		Policy:  sched.FIFO{},
		MaxJobs: 1 << 30, MaxQueue: 1 << 30,
		// A production-shaped sampling rate: the tracer's untraced fast
		// path (one atomic per request) is what the 5% bar measures, not
		// the cost of recording every span.
		TraceSampleEvery: 1024,
	})
}

// BenchmarkScheddSubmitBinary is BenchmarkScheddSubmit over the binary
// batch protocol, still one job per request — isolating the codec swap
// from the batching win.
func BenchmarkScheddSubmitBinary(b *testing.B) {
	benchScheddSubmitN(b, schedd.Config{
		Policy:  sched.FIFO{},
		MaxJobs: 1 << 30, MaxQueue: 1 << 30,
		TraceSampleEvery: 1024,
	}, 1, true)
}

// BenchmarkScheddSubmitBatch64 submits 64 jobs per JSON request — the
// batching win without the codec swap.
func BenchmarkScheddSubmitBatch64(b *testing.B) {
	benchScheddSubmitN(b, schedd.Config{
		Policy:  sched.FIFO{},
		MaxJobs: 1 << 30, MaxQueue: 1 << 30,
		TraceSampleEvery: 1024,
	}, 64, false)
}

// BenchmarkScheddSubmitBinaryBatch64 is the binary batch fast path: 64
// jobs per CRC-framed request through the pooled zero-allocation
// decoder and one admission critical section. The batch protocol's
// acceptance bar is ≥5× the jobs/s of BenchmarkScheddSubmit.
func BenchmarkScheddSubmitBinaryBatch64(b *testing.B) {
	benchScheddSubmitN(b, schedd.Config{
		Policy:  sched.FIFO{},
		MaxJobs: 1 << 30, MaxQueue: 1 << 30,
		TraceSampleEvery: 1024,
	}, 64, true)
}

// BenchmarkScheddSubmitBinaryBatch64Journaled adds the write-ahead
// journal under batched group-commit fsync: the whole 64-job batch
// shares one admission section and one group-commit append.
func BenchmarkScheddSubmitBinaryBatch64Journaled(b *testing.B) {
	benchScheddSubmitN(b, schedd.Config{
		Policy:  sched.FIFO{},
		MaxJobs: 1 << 30, MaxQueue: 1 << 30,
		DataDir: b.TempDir(), SnapshotEvery: 24,
		Sync: wal.SyncBatch,
	}, 64, true)
}

// BenchmarkScheddSubmitJournaled is the durable twin of
// BenchmarkScheddSubmit: the identical HTTP path with every admission
// appended to a write-ahead journal under batched group-commit fsync.
// The acceptance bar of the durability layer is that this stays within
// 2x of the in-memory path.
func BenchmarkScheddSubmitJournaled(b *testing.B) {
	benchScheddSubmit(b, schedd.Config{
		Policy:  sched.FIFO{},
		MaxJobs: 1 << 30, MaxQueue: 1 << 30,
		DataDir: b.TempDir(), SnapshotEvery: 24,
		Sync: wal.SyncBatch,
	})
}

// BenchmarkScheddSubmitNoMetrics is BenchmarkScheddSubmit with the
// metrics registry and the tracer disabled — the un-instrumented
// baseline. The acceptance bar of the observability layer is that the
// instrumented path (metrics on, tracing sampled 1/1024) stays within
// 5% of this.
func BenchmarkScheddSubmitNoMetrics(b *testing.B) {
	benchScheddSubmit(b, schedd.Config{
		Policy:  sched.FIFO{},
		MaxJobs: 1 << 30, MaxQueue: 1 << 30,
	}, schedd.WithoutMetrics(), schedd.WithoutTracing())
}

func benchScheddSubmit(b *testing.B, cfg schedd.Config, opts ...schedd.Option) {
	benchScheddSubmitN(b, cfg, 1, false, opts...)
}

// benchScheddSubmitN drives the submit path with `batch` jobs per
// request over either codec, reporting jobs/s so differently-batched
// variants compare directly. The ≥5× binary-vs-JSON acceptance bar of
// the batch protocol is jobs/s of BenchmarkScheddSubmitBinaryBatch64
// over jobs/s of BenchmarkScheddSubmit.
func benchScheddSubmitN(b *testing.B, cfg schedd.Config, batch int, binary bool, opts ...schedd.Option) {
	set, cl := schedWorld(b, 24*30)
	srv, err := schedd.New(set, cl, cfg,
		append([]schedd.Option{schedd.WithClock(func() time.Time { return set.Start() })}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := schedd.NewClient(ts.URL, ts.Client())
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]schedd.JobRequest, batch)
	for i := range reqs {
		reqs[i] = schedd.JobRequest{
			Origin: "CLEAN", LengthHours: 4, SlackHours: 48,
			Interruptible: true, Migratable: true,
		}
	}
	submit := client.Submit
	if binary {
		submit = client.SubmitBatch
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := submit(ctx, reqs...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "jobs/s")
}

// replJournal drives a journaling schedd for `hours` replay hours with
// a deterministic workload and reads the resulting journal back — the
// raw record stream a replication follower would receive.
func replJournal(b *testing.B, hours, njobs int) (*trace.Set, []sched.Cluster, [][]byte) {
	b.Helper()
	set, cl := schedWorld(b, hours)
	jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs: njobs, ArrivalSpan: hours - 48, SlackHours: 48,
		InterruptibleFrac: 0.7, MigratableFrac: 0.5,
		Origins: []string{"CLEAN", "DIRTY"}, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	var hour atomic.Int64
	srv, err := schedd.New(set, cl, schedd.Config{
		Policy: sched.GreenestFirst{}, Horizon: hours,
		MaxJobs: 1 << 30, MaxQueue: 1 << 30,
		DataDir: dir, Sync: wal.SyncNone,
	}, schedd.WithClock(func() time.Time {
		return set.Start().Add(time.Duration(hour.Load()) * time.Hour)
	}))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	client, err := schedd.NewClient(ts.URL, ts.Client())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	next := 0
	for h := 0; h < hours; h++ {
		hour.Store(int64(h))
		if _, err := client.Stats(ctx); err != nil {
			b.Fatal(err)
		}
		var batch []schedd.JobRequest
		for next < len(jobs) && jobs[next].Arrival == h {
			id := jobs[next].ID
			batch = append(batch, schedd.JobRequest{
				ID: &id, Origin: jobs[next].Origin, LengthHours: jobs[next].Length,
				SlackHours: jobs[next].Slack, Interruptible: jobs[next].Interruptible,
				Migratable: jobs[next].Migratable,
			})
			next++
		}
		if len(batch) > 0 {
			if _, err := client.Submit(ctx, batch...); err != nil {
				b.Fatal(err)
			}
		}
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	journals, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(journals) == 0 {
		b.Fatalf("no journal in %s (%v)", dir, err)
	}
	sort.Strings(journals)
	var records [][]byte
	if _, err := wal.Replay(journals[len(journals)-1], func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return set, cl, records
}

// BenchmarkFollowerApply measures the replication follower's apply
// path: journal records (admissions and hour watermarks) applied in
// stream order into a fresh fleet — the rate at which a hot standby
// can consume its primary's history, and the floor on how fast it
// catches up after a disconnect.
func BenchmarkFollowerApply(b *testing.B) {
	const hours = 24 * 30
	set, cl, records := replJournal(b, hours, 2000)
	mk := func() *schedd.Server {
		s, err := schedd.New(set, cl, schedd.Config{
			Policy: sched.GreenestFirst{}, Horizon: hours,
			MaxJobs: 1 << 30, MaxQueue: 1 << 30,
		})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	fol := mk()
	i := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i == len(records) {
			b.StopTimer()
			fol = mk()
			i = 0
			b.StartTimer()
		}
		if err := fol.ApplyReplRecord(records[i]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkFollowerRead measures the read path a follower serves while
// replicating: GET /v1/jobs/{id} over HTTP against a fleet populated
// by stream apply, lag header included — the scale-out read capacity
// a hot standby adds.
func BenchmarkFollowerRead(b *testing.B) {
	const hours = 24 * 30
	const njobs = 2000
	set, cl, records := replJournal(b, hours, njobs)
	fol, err := schedd.NewFollower(set, cl, schedd.Config{
		Policy: sched.GreenestFirst{}, Horizon: hours,
		MaxJobs: 1 << 30, MaxQueue: 1 << 30,
	}, schedd.FollowerConfig{Primary: "http://127.0.0.1:9"})
	if err != nil {
		b.Fatal(err)
	}
	defer fol.Close()
	for _, rec := range records {
		if err := fol.ApplyReplRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
	ts := httptest.NewServer(fol.Handler())
	defer ts.Close()
	client, err := schedd.NewClient(ts.URL, ts.Client())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Job(ctx, i%njobs); err != nil {
			b.Fatal(err)
		}
	}
}

// Keep the trace import alive for the envelope benchmark's types.
var _ = trace.Hour
