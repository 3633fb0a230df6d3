// Command perfbench is the repository benchmark. It runs one of three
// workloads against the program's public packages — the offline
// reproduction (offline-repro), the gateway-fronted online scheduler
// under an open-loop request mix (gateway-mixed), and a year of
// closed-loop replay into one durable partition followed by a restart
// (replay-year) — checks the outputs, and prints its metrics as one
// JSON object on the last line of standard output.
//
//	perfbench -workload gateway-mixed -seed 3 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (see endToEnd);
// with -trace 1 the run measures the workload twice, untraced and then
// with timing spans around every layer call, and prints the per-layer
// metrics (see perLayer) together with the layer budget and the
// tracing overhead. Every server is hosted in this process and reached
// over loopback TCP. README.md documents the workloads, the metrics
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every
// workload; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A layer that a
// workload never calls reads 0 there.
var perLayer = []metricDef{
	// Each workload's own end-to-end figures, measured in the untraced
	// half of the traced run.
	{"e2e.figures_s", "s"},
	{"e2e.replay_s", "s"},
	{"e2e.recover_s", "s"},
	{"e2e.batch_p50_ms", "ms"},
	{"e2e.batch_p99_ms", "ms"},
	{"e2e.single_p99_ms", "ms"},
	{"e2e.read_p99_ms", "ms"},
	{"e2e.max_rate_jobs_s", "jobs/s"},
	{"e2e.error_rate", "ratio"},
	{"budget.residual_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.late_rounds", "count"},

	// offline-repro
	{"simgrid.generate_s", "s"},
	{"simgrid.generate_cpu_s", "s"},
	{"simgrid.cache_hits", "count"},
	{"simgrid.cache_misses", "count"},
	{"core.fig4_s", "s"},
	{"core.fig4_cpu_s", "s"},
	{"core.fig6a_s", "s"},
	{"core.fig6a_cpu_s", "s"},
	{"core.fig7_s", "s"},
	{"core.fig7_cpu_s", "s"},
	{"core.fig10d_s", "s"},
	{"core.fig10d_cpu_s", "s"},
	{"core.fig11b_s", "s"},
	{"core.fig11b_cpu_s", "s"},
	{"core.fig11d_s", "s"},
	{"core.fig11d_cpu_s", "s"},
	{"core.rest_s", "s"},
	{"core.rest_cpu_s", "s"},
	{"engine.cpu_per_wall", "ratio"},

	// gateway-mixed (the schedd.*, wal.* and sched.* families also
	// on replay-year where that workload calls the layer)
	{"gateway.batch_self_ms", "ms"},
	{"gateway.single_self_ms", "ms"},
	{"gateway.read_self_ms", "ms"},
	{"gateway.split_submits", "count"},
	{"gateway.proxied_submits", "count"},
	{"gateway.partition_errors", "count"},
	{"gateway.split_ratio", "ratio"},
	{"schedd.batch_handler_ms_p50", "ms"},
	{"schedd.batch_handler_ms_p99", "ms"},
	{"schedd.single_handler_ms_p50", "ms"},
	{"schedd.single_handler_ms_p99", "ms"},
	{"schedd.lookup_handler_ms_p50", "ms"},
	{"schedd.lookup_handler_ms_p99", "ms"},
	{"schedd.stats_handler_ms_p50", "ms"},
	{"schedd.stats_handler_ms_p99", "ms"},
	{"schedd.decode_binary_ns_per_job", "ns"},
	{"schedd.decode_json_ns_per_job", "ns"},
	{"schedd.backpressure_queue_full", "count"},
	{"schedd.backpressure_job_store_full", "count"},
	{"schedd.backpressure_horizon_exhausted", "count"},
	{"schedd.backpressure_oversize", "count"},
	{"schedd.resident_jobs_end", "count"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_ms_mean", "ms"},
	{"wal.records_per_fsync", "count"},
	{"wal.bytes_per_job", "bytes"},
	{"sched.steps", "count"},
	{"sched.step_ms_mean", "ms"},
	{"sched.step_ms_max", "ms"},

	// replay-year
	{"sched.step_ms_p50", "ms"},
	{"sched.step_ms_p99", "ms"},
	{"sched.snapshot_ms", "ms"},
	{"sched.resident_jobs_peak", "count"},
	{"schedd.submit_ms_per_1k_jobs", "ms"},
	{"schedd.repl_apply_us_per_record", "us"},
	{"wal.replay_ms", "ms"},
	{"wal.snapshot_bytes", "bytes"},
}

// setupRuns is how many times a run builds each world it measures;
// setup_s is the median build time, and the last build is the one
// measured.
const setupRuns = 5

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds int
	dir     string // scratch directory for data dirs, removed at exit
}

// report collects one run's counts, output checks and metric values.
type report struct {
	attempted int
	failed    int
	failures  []string
	values    map[string]float64
}

// check records a failed output check.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(runConfig, *report) error
}{
	"offline-repro": {runOffline, traceOffline},
	"gateway-mixed": {runGateway, traceGateway},
	"replay-year":   {runReplay, traceReplay},
}

func main() {
	name := flag.String("workload", "", "workload: offline-repro, gateway-mixed or replay-year")
	seed := flag.Uint64("seed", 1, "input seed (world, jobs and request schedule)")
	seconds := flag.Int("seconds", 10, "gateway-mixed open-loop time, shared across its rounds; the other workloads run fixed work")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	// Data directories live in the checkout's build directory, removed
	// at exit.
	dir := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	scratch, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(scratch)

	cfg := runConfig{seed: *seed, seconds: *seconds, dir: scratch}
	rep := &report{values: map[string]float64{}}
	run, defs := w.run, endToEnd
	if *traced == 1 {
		run, defs = w.trace, perLayer
	}
	if err := run(cfg, rep); err != nil {
		os.RemoveAll(scratch)
		fatal(err)
	}
	if *traced == 0 {
		// The process runs only this one workload, so its peak is the
		// workload's.
		rep.set("peak_rss_mb", peakRSSMB())
	}
	if err := emit(*name, rep, defs, *traced == 1); err != nil {
		os.RemoveAll(scratch)
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints every metric of defs by name and unit, then the result
// line. A per-layer metric the workload did not produce reads 0; a
// missing end-to-end metric is a benchmark bug.
func emit(workload string, rep *report, defs []metricDef, zeroFill bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	known := map[string]bool{}
	metrics := map[string]value{}
	for _, d := range defs {
		known[d.name] = true
		v, ok := rep.values[d.name]
		if !ok && !zeroFill {
			return fmt.Errorf("%s: end-to-end metric %s not measured", workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", workload, d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Printf("%-16s %-38s %16.6f %s\n", workload, d.name, v, d.unit)
	}
	for name := range rep.values {
		if !known[name] {
			return fmt.Errorf("%s: metric %s is not declared", workload, name)
		}
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%-16s %-38s %16d / %d (error_rate %g)\n", workload, "failed / attempted", rep.failed, rep.attempted, errRate)
	sort.Strings(rep.failures)
	for _, f := range rep.failures {
		fmt.Printf("%-16s CHECK FAILED: %s\n", workload, f)
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.failures) == 0, max(rep.attempted, 1), rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// ---- measurement helpers ----

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedBuilds builds a world n times through build, closing every
// world but the last, and returns the last with each build's time in
// seconds. A closed world's memory is collected before the next build,
// so it neither slows that build nor shows in peak_rss_mb.
func timedBuilds[T interface{ close() }](n int, build func() (T, error)) (T, []float64, error) {
	var env T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			env.close()
			runtime.GC()
		}
		start := time.Now()
		e, err := build()
		if err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		env = e
	}
	return env, times, nil
}
