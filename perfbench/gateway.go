package main

// gateway-mixed: a closed-loop burst of split batches, then an open
// loop of independent users, in front of gateway.Gateway over two
// durable schedd partitions. Each open-loop request is timed from the
// moment it was due, so a stall also counts against the requests
// queued behind it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"carbonshift/internal/gateway"
	"carbonshift/internal/regions"
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/wal"
)

const (
	gwRegions = 8    // the first hyperscale catalog regions, split round-robin into 2 groups
	gwSlots   = 2000 // per region: enough that the resident population levels off
	gwHorizon = 24 * 120

	// The request mix is an assumption of the benchmark, not a measured
	// trace; README.md gives the reason for each rate.
	gwBatchJobs   = 64
	gwRefJobsPerS = 8000.0 // split binary batches at the reference rate
	gwSinglesPerS = 100.0  // JSON single-job submits at the reference rate
	gwReadsPerS   = 100.0  // job lookups at the reference rate
	gwStatsEvery  = 500 * time.Millisecond

	// gwJobsPerHour fixes the job density of the replay clock: it moves
	// one trace hour per this many batch jobs due, which at the
	// reference rate is one hour per 100 ms of schedule time.
	gwJobsPerHour = 800
	// gwRounds is how many fresh worlds one run measures; each drains a
	// closed-loop backlog of gwBurstBatches, which brings the resident
	// population to its level and whose fastest drain is work_s, and
	// then runs a reference phase of -seconds/gwRounds.
	gwRounds       = 5
	gwBurstBatches = 2500

	// gwLimit is the ladder's batch p99 limit, and gwMaxGenLate the
	// generator lateness beyond which a round counts as late.
	gwLimit         = 100 * time.Millisecond
	gwMaxGenLate    = 20 * time.Millisecond
	gwLadderSeconds = 4
)

// gwLadder are the ladder's rates as multiples of the reference rate.
var gwLadder = []float64{1, 1.5, 2, 3, 4}

const (
	opBatch = iota
	opSingle
	opRead
	opStats
)

// op is one scheduled request. Read ids are picked when the read is
// sent, from the ids acknowledged so far.
type op struct {
	kind int
	due  time.Duration
	body []byte
}

// gwOrigins are the workload's regions.
func gwOrigins() []string { return regions.Hyperscale()[:gwRegions] }

// gwSeed is the job stream seed of one phase of a run: salt 1 is the
// warm-up, 2 the burst, and 16 × the rate multiple an open-loop
// schedule.
func gwSeed(seed, salt uint64) uint64 { return seed<<10 | salt }

// gwSchedule builds the request mix for one phase at mult times the
// reference rate: split batches, single-job JSON submits, lookups and
// stats polls. The jobs come from the shared job model; a batch's 64
// origins are drawn from all 8 regions, so in practice every batch
// spans both partitions (gateway.split_ratio reports it).
func gwSchedule(seed uint64, mult float64, length time.Duration) ([]op, error) {
	every := func(perSec float64) []time.Duration {
		var dues []time.Duration
		step := time.Duration(float64(time.Second) / perSec)
		for due := time.Duration(0); due < length; due += step {
			dues = append(dues, due)
		}
		return dues
	}
	batches, singles := every(mult*gwRefJobsPerS/gwBatchJobs), every(mult*gwSinglesPerS)
	jobs, err := benchJobs(gwSeed(seed, uint64(16*mult)), len(batches)*gwBatchJobs+len(singles), 1, gwOrigins())
	if err != nil {
		return nil, err
	}
	var ops []op
	for _, due := range batches {
		ops = append(ops, op{kind: opBatch, due: due, body: gwBatchBody(jobs[:gwBatchJobs])})
		jobs = jobs[gwBatchJobs:]
	}
	for i, due := range singles {
		b, _ := json.Marshal(request(&jobs[i])) // a plain struct always marshals
		ops = append(ops, op{kind: opSingle, due: due, body: b})
	}
	for _, due := range every(mult * gwReadsPerS) {
		ops = append(ops, op{kind: opRead, due: due})
	}
	for _, due := range every(float64(time.Second) / float64(gwStatsEvery)) {
		ops = append(ops, op{kind: opStats, due: due})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops, nil
}

// gwBatchBody encodes jobs as one binary batch.
func gwBatchBody(jobs []sched.Job) []byte {
	reqs := make([]schedd.JobRequest, len(jobs))
	for i := range jobs {
		reqs[i] = request(&jobs[i])
	}
	return schedd.AppendBinarySubmit(nil, reqs)
}

// gwEnv is one gateway-fronted world: two durable partitions and the
// gateway, each on its own loopback listener.
type gwEnv struct {
	gen   time.Duration // simgrid world generation
	start time.Time
	hour  atomic.Int64
	dirs  []string
	srvs  []*schedd.Server
	parts []*httptest.Server
	gw    *gateway.Gateway
	gwts  *httptest.Server
	gwTr  *http.Transport

	gwSpans, partSpans *spanLog // nil in untraced runs

	ackMu sync.Mutex
	acked []int
}

func newGatewayEnv(cfg runConfig, tr *gwTrace) (*gwEnv, error) {
	simgrid.ResetCache()
	codes := gwOrigins()
	var regs []regions.Region
	var clusters []sched.Cluster
	for _, c := range codes {
		regs = append(regs, regions.MustByCode(c))
		clusters = append(clusters, sched.Cluster{Region: c, Slots: gwSlots})
	}
	genStart := time.Now()
	set, err := simgrid.GenerateCached(context.Background(), regs, simgrid.Config{Seed: cfg.seed, Hours: gwHorizon}, 0)
	if err != nil {
		return nil, fmt.Errorf("simgrid: %w", err)
	}
	e := &gwEnv{start: set.Start(), gen: time.Since(genStart)}
	if tr != nil {
		e.gwSpans, e.partSpans = tr.gwSpans, tr.partSpans
	}
	var urls [][]string
	for i := 0; i < 2; i++ {
		var group []string
		var groupCl []sched.Cluster
		for j := i; j < len(codes); j += 2 {
			group = append(group, codes[j])
			groupCl = append(groupCl, clusters[j])
		}
		sub, err := set.Subset(group)
		if err != nil {
			e.close()
			return nil, err
		}
		// cmd/schedd's defaults: carbon-gate at the 35th percentile of
		// a 168 h window, group-commit fsync, a snapshot every 24 h.
		policy, err := schedd.PolicyByName("carbon-gate", 35, 168)
		if err != nil {
			e.close()
			return nil, err
		}
		dir, err := os.MkdirTemp(cfg.dir, fmt.Sprintf("partition%d-", i))
		if err != nil {
			e.close()
			return nil, err
		}
		e.dirs = append(e.dirs, dir)
		srv, err := schedd.New(sub, groupCl, schedd.Config{
			Policy:        policy,
			Horizon:       gwHorizon,
			Seed:          cfg.seed,
			Partitions:    2,
			PartitionID:   i,
			IDBase:        i * schedd.DefaultMaxJobs,
			DataDir:       dir,
			SnapshotEvery: 24,
			Sync:          wal.SyncBatch,
		}, schedd.WithClock(e.now))
		if err != nil {
			e.close()
			return nil, fmt.Errorf("schedd.New partition %d: %w", i, err)
		}
		e.srvs = append(e.srvs, srv)
		ts := httptest.NewServer(e.partSpans.wrap(srv.Handler()))
		e.parts = append(e.parts, ts)
		urls = append(urls, []string{ts.URL})
	}
	// cmd/schedgw's client: a 30 s timeout over the default transport
	// settings (a private copy, so worlds never share connections).
	e.gwTr = http.DefaultTransport.(*http.Transport).Clone()
	e.gw, err = gateway.New(gateway.Config{
		Partitions: urls,
		HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: e.gwTr},
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.gwts = httptest.NewServer(e.gwSpans.wrap(e.gw.Handler()))

	// Warm-up: the gateway learns the topology, and one split batch
	// crosses every hop once.
	warm, err := benchJobs(gwSeed(cfg.seed, 1), gwBatchJobs, 1, codes)
	if err != nil {
		e.close()
		return nil, err
	}
	client := newGenClient()
	defer client.CloseIdleConnections()
	for _, o := range []op{{kind: opBatch, body: gwBatchBody(warm)}, {kind: opStats}} {
		if ok, _ := e.do(client, &o, nil); !ok {
			e.close()
			return nil, fmt.Errorf("gateway warm-up request (kind %d) failed", o.kind)
		}
	}
	return e, nil
}

func (e *gwEnv) now() time.Time {
	return e.start.Add(time.Duration(e.hour.Load()) * time.Hour)
}

// advanceTo moves the replay clock forward to hour h (never back).
func (e *gwEnv) advanceTo(h int64) {
	for {
		cur := e.hour.Load()
		if h <= cur || e.hour.CompareAndSwap(cur, h) {
			return
		}
	}
}

func (e *gwEnv) close() {
	if e.gwts != nil {
		e.gwts.Close()
	}
	if e.gwTr != nil {
		e.gwTr.CloseIdleConnections()
	}
	for _, ts := range e.parts {
		ts.Close()
	}
	for _, s := range e.srvs {
		s.Close()
	}
	for _, d := range e.dirs {
		os.RemoveAll(d)
	}
}

// newGenClient is one generator's client: one connection, reused.
func newGenClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// call sends one request and returns the status and body.
func call(client *http.Client, method, url, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// do sends o through the gateway and checks the answer; a read picks
// its id with rng. partial reports a 207 (a split batch only partly
// admitted); its admitted ids are still recorded as acked.
func (e *gwEnv) do(client *http.Client, o *op, rng *rand.Rand) (ok, partial bool) {
	base := e.gwts.URL
	switch o.kind {
	case opBatch, opSingle:
		path, ctype, want := "/v1/jobs/batch", schedd.BinaryContentType, gwBatchJobs
		if o.kind == opSingle {
			path, ctype, want = "/v1/jobs", "application/json", 1
		}
		status, body, err := call(client, http.MethodPost, base+path, ctype, o.body)
		if err != nil {
			return false, false
		}
		switch status {
		case http.StatusOK:
			var ack schedd.SubmitResponse
			if o.kind == opBatch {
				ack, err = schedd.DecodeBinaryAck(body)
			} else {
				err = json.Unmarshal(body, &ack)
			}
			if err != nil || ack.Accepted != want || len(ack.IDs) != want {
				return false, false
			}
			e.ack(ack.IDs...)
			return true, false
		case http.StatusMultiStatus:
			var ms schedd.MultiStatusResponse
			if json.Unmarshal(body, &ms) == nil {
				for _, out := range ms.Outcomes {
					if out.Status == http.StatusOK {
						e.ack(out.ID)
					}
				}
			}
			return false, true
		}
		return false, false
	case opRead:
		e.ackMu.Lock()
		id := e.acked[rng.IntN(len(e.acked))]
		e.ackMu.Unlock()
		status, body, err := call(client, http.MethodGet, base+"/v1/jobs/"+strconv.Itoa(id), "", nil)
		var job schedd.JobResponse
		return err == nil && status == http.StatusOK && json.Unmarshal(body, &job) == nil && job.ID == id, false
	case opStats:
		status, body, err := call(client, http.MethodGet, base+"/v1/stats", "", nil)
		var st schedd.StatsResponse
		return err == nil && status == http.StatusOK && json.Unmarshal(body, &st) == nil && st.Submitted > 0, false
	}
	return false, false
}

func (e *gwEnv) ack(ids ...int) {
	e.ackMu.Lock()
	e.acked = append(e.acked, ids...)
	e.ackMu.Unlock()
}

// opResult is one request's outcome. lat is timed from the due time,
// svc from the send; late is how late the generator sent a request it
// was free to send on time (-1 when the previous reply was still
// outstanding at the due time).
type opResult struct {
	kind          int
	lat, svc      time.Duration
	late          time.Duration
	ok, partial   bool
	finishedAfter time.Duration // completion, relative to the phase start
}

// phase is one open-loop or closed-loop phase's results.
type phase struct {
	results []opResult
	wall    time.Duration
}

// openLoop sends ops on their schedule from two generator goroutines,
// each with one connection, advancing the replay clock one hour per
// span of schedule time.
func (e *gwEnv) openLoop(ops []op, span time.Duration, seed uint64) phase {
	base := e.hour.Load()
	start := time.Now().Add(10 * time.Millisecond)
	results := make([]opResult, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newGenClient()
			defer client.CloseIdleConnections()
			rng := rand.New(rand.NewPCG(seed, uint64(w)+1))
			var prevDone time.Time
			for i := w; i < len(ops); i += 2 {
				o := &ops[i]
				due := start.Add(o.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				send := time.Now()
				res := opResult{kind: o.kind, late: -1}
				if !prevDone.After(due) {
					res.late = send.Sub(due)
				}
				e.advanceTo(base + int64(o.due/span))
				res.ok, res.partial = e.do(client, o, rng)
				done := time.Now()
				res.lat, res.svc, res.finishedAfter = done.Sub(due), done.Sub(send), done.Sub(start)
				results[i] = res
				prevDone = done
			}
		}()
	}
	wg.Wait()
	return phase{results: results, wall: time.Since(start)}
}

// burst drains a backlog of split batches in a closed loop from two
// generators, advancing the clock by job count at the same density as
// the open loop, so every run steps and snapshots the same hours.
func (e *gwEnv) burst(bodies [][]byte) phase {
	base := e.hour.Load()
	results := make([]opResult, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newGenClient()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				e.advanceTo(base + int64(i*gwBatchJobs/gwJobsPerHour))
				send := time.Now()
				res := opResult{kind: opBatch, late: -1}
				res.ok, res.partial = e.do(client, &op{kind: opBatch, body: bodies[i]}, nil)
				res.svc = time.Since(send)
				res.lat = res.svc
				results[i] = res
			}
		}()
	}
	wg.Wait()
	return phase{results: results, wall: time.Since(start)}
}

func gwBurstBodies(seed uint64) ([][]byte, error) {
	jobs, err := benchJobs(gwSeed(seed, 2), gwBurstBatches*gwBatchJobs, 1, gwOrigins())
	if err != nil {
		return nil, err
	}
	out := make([][]byte, gwBurstBatches)
	for i := range out {
		out[i] = gwBatchBody(jobs[i*gwBatchJobs : (i+1)*gwBatchJobs])
	}
	return out, nil
}

// latencies returns the phase's latencies (from due) in ms for the
// given kinds (all kinds when none are given).
func (p phase) latencies(kinds ...int) []float64 {
	var out []float64
	for _, r := range p.results {
		if len(kinds) == 0 || slices.Contains(kinds, r.kind) {
			out = append(out, ms(r.lat))
		}
	}
	return out
}

// tally counts the phase's requests and failures into rep; a refused
// or partly admitted request counts as failed.
func (p phase) tally(rep *report) (failed, partial int) {
	for _, r := range p.results {
		rep.attempted++
		if !r.ok {
			rep.failed++
			failed++
		}
		if r.partial {
			partial++
		}
	}
	return failed, partial
}

// genLateP99 is the 99th percentile of the generator's own lateness,
// in ms, over requests it was free to send on time.
func (p phase) genLateP99() float64 {
	var late []float64
	for _, r := range p.results {
		if r.late >= 0 {
			late = append(late, ms(r.late))
		}
	}
	return quantile(late, 0.99)
}

// backlog is how long after its due time the last request of the
// schedule finished: a backlog that grew over the phase shows here.
func (p phase) backlog() time.Duration {
	var last opResult
	for _, r := range p.results {
		if r.finishedAfter > last.finishedAfter {
			last = r
		}
	}
	return last.lat
}

// verify checks the world after its phases: every acked id was
// admitted exactly once across the partitions and nothing else was,
// and the partitions' submitted counts sum to the acked jobs.
func (e *gwEnv) verify(rep *report) error {
	seen := map[int]int{}
	for _, s := range e.srvs {
		for _, o := range s.Snapshot().Outcomes {
			seen[o.ID]++
		}
	}
	dup, missing := 0, 0
	acked := map[int]bool{}
	for _, id := range e.acked {
		if acked[id] {
			dup++
		}
		acked[id] = true
		if seen[id] != 1 {
			missing++
		}
	}
	rep.check(dup == 0 && missing == 0 && len(seen) == len(acked),
		"acked ids: %d duplicate, %d not found exactly once, %d admitted vs %d acked", dup, missing, len(seen), len(acked))
	submitted := 0
	for _, ts := range e.parts {
		status, body, err := call(ts.Client(), http.MethodGet, ts.URL+"/v1/stats", "", nil)
		var st schedd.StatsResponse
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &st) != nil {
			return fmt.Errorf("partition stats: status %d, %v", status, err)
		}
		submitted += st.Submitted
	}
	rep.check(submitted == len(e.acked), "partitions submitted %d jobs, %d acked", submitted, len(e.acked))
	return nil
}

// gwPass is one measured world: the burst and the reference phase,
// with the process CPU time of the two together.
type gwPass struct {
	ref, burst phase
	cpu        time.Duration
}

// runGatewayPass runs the burst and then the reference phase on env
// and checks the outputs; neither may see a failure at all.
func runGatewayPass(cfg runConfig, env *gwEnv, ops []op, bodies [][]byte, rep *report) (gwPass, error) {
	var p gwPass
	cpuStart := cpuTime()
	p.burst = env.burst(bodies)
	p.ref = env.openLoop(ops, gwSpan(1), cfg.seed)
	p.cpu = cpuTime() - cpuStart
	failed, partial := p.ref.tally(rep)
	rep.check(failed == 0 && partial == 0, "reference rate: %d failed requests, %d partly admitted (207)", failed, partial)
	bf, bp := p.burst.tally(rep)
	rep.check(bf == 0 && bp == 0, "burst: %d failed batches, %d partly admitted (207)", bf, bp)
	return p, env.verify(rep)
}

// gwRoundLength is one round's reference phase: the run's seconds
// shared across the rounds.
func gwRoundLength(cfg runConfig) time.Duration {
	return time.Duration(cfg.seconds) * time.Second / gwRounds
}

// gwSpan is the schedule time per trace hour at mult times the
// reference rate, keeping gwJobsPerHour batch jobs per hour.
func gwSpan(mult float64) time.Duration {
	return time.Duration(float64(time.Second) * gwJobsPerHour / (mult * gwRefJobsPerS))
}

// gwRun is one measurement: gwRounds rounds, each on a fresh world
// doing the same work, so a round hit by a transient stall on the
// machine moves the medians little.
type gwRun struct {
	setup  []float64 // seconds per world build
	passes []gwPass
}

// latencies pools the rounds' reference-phase latencies (ms) of the
// given kinds, all kinds when none are given: a tail quantile then
// rests on every round's stalls rather than on one round's few.
func (r gwRun) latencies(kinds ...int) []float64 {
	var out []float64
	for _, p := range r.passes {
		out = append(out, p.ref.latencies(kinds...)...)
	}
	return out
}

// median over the rounds of f.
func (r gwRun) median(f func(gwPass) float64) float64 {
	var xs []float64
	for _, p := range r.passes {
		xs = append(xs, f(p))
	}
	return quantile(xs, 0.5)
}

// gatewayRounds measures gwRounds rounds, each on a fresh world doing
// the same work. An untraced run builds each round's world setupRuns
// times, so setup_s is the median of builds spread over the run. Every
// round counts: one whose generator fell behind is reported on a line
// of its own but kept, since dropping it would favour the rounds in
// which the program left the generator more CPU. The run is invalid
// when the median round's generator lateness is over gwMaxGenLate.
func gatewayRounds(cfg runConfig, rep *report, tr *gwTrace) (gwRun, error) {
	var run gwRun
	ops, err := gwSchedule(cfg.seed, 1, gwRoundLength(cfg))
	var bodies [][]byte
	if err == nil {
		bodies, err = gwBurstBodies(cfg.seed)
	}
	if err != nil {
		return run, err
	}
	builds := setupRuns
	if tr != nil {
		builds = 1 // a discarded world's warm-up would land in the spans
	}
	for i := 0; i < gwRounds; i++ {
		env, setup, err := timedBuilds(builds, func() (*gwEnv, error) { return newGatewayEnv(cfg, tr) })
		if err != nil {
			return run, err
		}
		run.setup = append(run.setup, setup...)
		p, err := runGatewayPass(cfg, env, ops, bodies, rep)
		if err == nil && tr != nil {
			err = tr.collect(env, p)
		}
		env.close()
		runtime.GC() // free this world before the next is built
		if err != nil {
			return run, err
		}
		if late := p.ref.genLateP99(); late > ms(gwMaxGenLate) {
			fmt.Printf("gateway-mixed    round %d late: generator lateness p99 %.2f ms > %v\n", i+1, late, gwMaxGenLate)
		}
		run.passes = append(run.passes, p)
	}
	late := run.median(func(p gwPass) float64 { return p.ref.genLateP99() })
	rep.check(late <= ms(gwMaxGenLate), "generator fell behind: median round lateness p99 %.2f ms > %v, run invalid", late, gwMaxGenLate)
	return run, nil
}

// lateRounds counts the rounds whose generator lateness p99 was over
// gwMaxGenLate.
func (r gwRun) lateRounds() int {
	n := 0
	for _, p := range r.passes {
		if p.ref.genLateP99() > ms(gwMaxGenLate) {
			n++
		}
	}
	return n
}

func runGateway(cfg runConfig, rep *report) error {
	run, err := gatewayRounds(cfg, rep, nil)
	if err != nil {
		return err
	}
	var burst, cpu []float64
	for _, p := range run.passes {
		burst, cpu = append(burst, p.burst.wall.Seconds()), append(cpu, p.cpu.Seconds())
	}
	fmt.Printf("gateway-mixed    rounds: burst %.2f s, cpu %.2f s\n", burst, cpu)
	rep.set("setup_s", quantile(run.setup, 0.5))
	// The rounds drain the same backlog, and the machine's interference
	// only ever adds time, so the fastest drain is the closest to the
	// program's own cost.
	rep.set("work_s", slices.Min(burst))
	rep.set("cpu_s", quantile(cpu, 0.5))
	return nil
}

func traceGateway(cfg runConfig, rep *report) error {
	// Untraced: the per-route latencies and the overhead baseline.
	a, err := gatewayRounds(cfg, rep, nil)
	if err != nil {
		return err
	}
	rep.set("e2e.batch_p50_ms", quantile(a.latencies(opBatch), 0.5))
	rep.set("e2e.batch_p99_ms", quantile(a.latencies(opBatch), 0.99))
	rep.set("e2e.single_p99_ms", quantile(a.latencies(opSingle), 0.99))
	rep.set("e2e.read_p99_ms", quantile(a.latencies(opRead), 0.99))
	rep.set("bench.gen_late_p99_ms", a.median(func(p gwPass) float64 { return p.ref.genLateP99() }))
	rep.set("bench.late_rounds", float64(a.lateRounds()))

	// Traced: the same rounds with every handler wrapped.
	tr := &gwTrace{gwSpans: newSpanLog(), partSpans: newSpanLog(), parts: promSamples{}, gw: promSamples{}}
	b, err := gatewayRounds(cfg, rep, tr)
	if err != nil {
		return err
	}
	burst := func(p gwPass) float64 { return p.burst.wall.Seconds() }
	rep.set("bench.trace_overhead_pct", 100*(b.median(burst)-a.median(burst))/a.median(burst))
	if err := tr.report(rep); err != nil {
		return err
	}

	// The ladder, untraced, on one world: the burst brings its resident
	// population to its level, then the rates climb in turn up to the
	// first one that misses the limit.
	bodies, err := gwBurstBodies(cfg.seed)
	if err != nil {
		return err
	}
	env, err := newGatewayEnv(cfg, nil)
	if err != nil {
		return err
	}
	defer env.close()
	if bf, _ := env.burst(bodies).tally(rep); bf > 0 {
		return fmt.Errorf("ladder fill: %d failed batches", bf)
	}
	best := 0.0
	for _, mult := range gwLadder {
		ops, err := gwSchedule(cfg.seed, mult, gwLadderSeconds*time.Second)
		if err != nil {
			return err
		}
		ph := env.openLoop(ops, gwSpan(mult), cfg.seed)
		failed := 0
		for _, r := range ph.results {
			if !r.ok {
				failed++
			}
		}
		p99 := quantile(ph.latencies(opBatch), 0.99)
		okRate := failed == 0 && p99 <= ms(gwLimit) && ph.backlog() <= gwLimit
		fmt.Printf("gateway-mixed    ladder %6.0f jobs/s: batch p99 %8.2f ms, final backlog %8.2f ms, %d failed, meets limit %v\n",
			mult*gwRefJobsPerS, p99, ms(ph.backlog()), failed, okRate)
		if !okRate {
			break
		}
		best = mult * gwRefJobsPerS
	}
	rep.set("e2e.max_rate_jobs_s", best)
	rep.set("e2e.error_rate", float64(rep.failed)/float64(rep.attempted))
	return nil
}

// gwTrace accumulates the traced rounds: handler spans, the
// partitions' and the gateway's counters (summed over rounds), and the
// client-side service time the budget compares the spans against.
type gwTrace struct {
	gwSpans, partSpans *spanLog
	parts, gw          promSamples
	gen                []float64 // simgrid world generation, seconds
	resident           []float64 // unresolved jobs when a round ends
	acked, batches     int
	clientMs           float64
}

// collect reads a traced round's counters before its world closes.
func (t *gwTrace) collect(env *gwEnv, p gwPass) error {
	var resident float64
	for _, ts := range env.parts {
		s, err := scrape(ts.Client(), ts.URL+"/metrics")
		if err != nil {
			return err
		}
		resident += s.sum("schedd_jobs_unresolved")
		t.parts.add(s)
	}
	var buf bytes.Buffer
	if err := env.gw.Metrics().WriteTo(&buf); err != nil {
		return err
	}
	gw, err := parseProm(&buf)
	if err != nil {
		return err
	}
	t.gw.add(gw)
	t.gen = append(t.gen, env.gen.Seconds())
	t.resident = append(t.resident, resident)
	t.acked += len(env.acked)
	t.batches++ // the warm-up batch
	for _, ph := range []phase{p.ref, p.burst} {
		for _, r := range ph.results {
			if r.kind == opBatch {
				t.batches++
			}
			t.clientMs += ms(r.svc)
		}
	}
	return nil
}

// report sets the traced rounds' per-layer metrics.
func (t *gwTrace) report(rep *report) error {
	gwS, pS := t.gwSpans, t.partSpans
	for _, r := range []struct{ route, name string }{
		{routeBatch, "batch"}, {routeSingle, "single"}, {routeLookup, "read"},
	} {
		if g := gwS.spans(r.route); len(g) > 0 {
			rep.set("gateway."+r.name+"_self_ms", mean(g)-sum(pS.spans(r.route))/float64(len(g)))
		}
	}
	setHandlerQuantiles(rep, pS, routeBatch, routeSingle, routeLookup, routeStats)
	setServerCounters(rep, t.parts, t.acked)
	rep.set("schedd.resident_jobs_end", quantile(t.resident, 0.5))
	rep.set("simgrid.generate_s", quantile(t.gen, 0.5))
	rep.set("gateway.split_submits", t.gw.sum("gateway_split_submits_total"))
	rep.set("gateway.proxied_submits", t.gw.sum("gateway_proxied_submits_total"))
	rep.set("gateway.partition_errors", t.gw.sum("gateway_partition_errors_total"))
	rep.set("gateway.split_ratio", t.gw.sum("gateway_split_submits_total")/float64(t.batches))

	// The layer budget: client-observed service time not covered by
	// the gateway handler spans (transport, client, connection reuse).
	rep.set("budget.residual_pct", 100*(t.clientMs-gwS.total())/t.clientMs)

	// The two submit decoders on the workload's own bodies.
	ops, err := gwSchedule(0, 1, 10*time.Second)
	if err != nil {
		return err
	}
	var bin, js [][]byte
	for _, o := range ops {
		switch o.kind {
		case opBatch:
			bin = append(bin, o.body)
		case opSingle:
			js = append(js, o.body)
		}
	}
	binNs, err := decodeNsPerJob(bin, gwBatchJobs, schedd.DecodeBinarySubmit)
	if err != nil {
		return fmt.Errorf("schedd.DecodeBinarySubmit: %w", err)
	}
	jsonNs, err := decodeNsPerJob(js, 1, schedd.DecodeSubmit)
	if err != nil {
		return fmt.Errorf("schedd.DecodeSubmit: %w", err)
	}
	rep.set("schedd.decode_binary_ns_per_job", binNs)
	rep.set("schedd.decode_json_ns_per_job", jsonNs)
	return nil
}

// setServerCounters reports the WAL, step and backpressure counters of
// a partition scrape (summed over partitions).
func setServerCounters(rep *report, p promSamples, jobs int) {
	fsyncs := p.sum("wal_fsync_seconds_count")
	rep.set("wal.fsyncs", fsyncs)
	if fsyncs > 0 {
		rep.set("wal.fsync_ms_mean", 1000*p.sum("wal_fsync_seconds_sum")/fsyncs)
	}
	if n := p.sum("wal_fsync_batch_records_count"); n > 0 {
		rep.set("wal.records_per_fsync", p.sum("wal_fsync_batch_records_sum")/n)
	}
	rep.set("wal.bytes_per_job", p.sum("wal_appended_bytes_total")/float64(jobs))
	steps := p.sum("schedd_step_latency_seconds_count")
	rep.set("sched.steps", steps)
	if steps > 0 {
		rep.set("sched.step_ms_mean", 1000*p.sum("schedd_step_latency_seconds_sum")/steps)
	}
	rep.set("sched.step_ms_max", 1000*p.histMax("schedd_step_latency_seconds"))
	for _, reason := range []string{"queue_full", "job_store_full", "horizon_exhausted", "oversize"} {
		rep.set("schedd.backpressure_"+reason, p[`schedd_backpressure_total{reason="`+reason+`"}`])
	}
}

// decodeNsPerJob times decode over every body, best of three passes.
func decodeNsPerJob(bodies [][]byte, jobsPer int, decode func(io.Reader) ([]schedd.JobRequest, error)) (float64, error) {
	best := time.Duration(1<<63 - 1)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for _, b := range bodies {
			if _, err := decode(bytes.NewReader(b)); err != nil {
				return 0, err
			}
		}
		best = min(best, time.Since(start))
	}
	return float64(best.Nanoseconds()) / float64(len(bodies)*jobsPer), nil
}
