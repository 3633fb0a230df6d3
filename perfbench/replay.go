package main

// replay-year: one durable partition, no gateway, a year of hourly
// closed-loop replay of a million jobs, then a restart from the data
// directory.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"carbonshift/internal/regions"
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/trace"
	"carbonshift/internal/wal"
)

const (
	rpRegions   = 16 // the first hyperscale catalog regions
	rpSlots     = 1000
	rpHours     = 24 * 365
	rpJobs      = 1_000_000
	rpSnapEvery = 720
	rpChunk     = 4096 // jobs per binary batch at most
	rpMonths    = 12   // the year is timed in 730-hour months too
)

// rpEnv is one replay world: the partition on its loopback listener
// and the year's arrivals, pre-encoded per hour.
type rpEnv struct {
	gen      time.Duration // simgrid world generation
	hour     atomic.Int64
	set      *trace.Set
	clusters []sched.Cluster
	cfg      schedd.Config
	srv      *schedd.Server
	ts       *httptest.Server
	client   *http.Client
	spans    *spanLog // nil in untraced runs

	bodies [][][]byte // by arrival hour
	counts [][]int    // jobs per body
}

func newReplayEnv(cfg runConfig, traced bool) (*rpEnv, error) {
	simgrid.ResetCache()
	codes := regions.Hyperscale()[:rpRegions]
	e := &rpEnv{}
	var regs []regions.Region
	for _, c := range codes {
		regs = append(regs, regions.MustByCode(c))
		e.clusters = append(e.clusters, sched.Cluster{Region: c, Slots: rpSlots})
	}
	genStart := time.Now()
	set, err := simgrid.GenerateCached(context.Background(), regs, simgrid.Config{Seed: cfg.seed, Hours: rpHours}, 0)
	if err != nil {
		return nil, fmt.Errorf("simgrid: %w", err)
	}
	e.gen, e.set = time.Since(genStart), set

	// Arrivals run until every deadline (capped length plus slack)
	// still falls inside the year, so the final journal generation
	// holds admissions as well as watermarks.
	jobs, err := benchJobs(cfg.seed, rpJobs, rpHours-maxJobHours-jobSlackHours, codes)
	if err != nil {
		return nil, err
	}
	byHour := make([][]schedd.JobRequest, rpHours)
	for i := range jobs {
		j := &jobs[i]
		r := request(j)
		r.ID = &j.ID
		byHour[j.Arrival] = append(byHour[j.Arrival], r)
	}
	e.bodies, e.counts = make([][][]byte, rpHours), make([][]int, rpHours)
	for h, reqs := range byHour {
		for len(reqs) > 0 {
			n := min(len(reqs), rpChunk)
			e.bodies[h] = append(e.bodies[h], schedd.AppendBinarySubmit(nil, reqs[:n]))
			e.counts[h] = append(e.counts[h], n)
			reqs = reqs[n:]
		}
	}

	dir, err := os.MkdirTemp(cfg.dir, "replay-")
	if err != nil {
		return nil, err
	}
	e.cfg = schedd.Config{
		Policy:        sched.GreenestFirst{},
		Horizon:       rpHours,
		Seed:          cfg.seed,
		DataDir:       dir,
		SnapshotEvery: rpSnapEvery,
		Sync:          wal.SyncBatch,
	}
	if traced {
		e.spans = newSpanLog()
	}
	if err := e.serve(); err != nil {
		e.close()
		return nil, err
	}
	e.client = newGenClient()
	if _, err := e.stats(); err != nil { // warm-up
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *rpEnv) now() time.Time {
	return e.set.Start().Add(time.Duration(e.hour.Load()) * time.Hour)
}

// serve starts (or, on a restart, recovers) the partition from the
// data directory and listens.
func (e *rpEnv) serve() error {
	srv, err := schedd.New(e.set, e.clusters, e.cfg, schedd.WithClock(e.now))
	if err != nil {
		return fmt.Errorf("schedd.New: %w", err)
	}
	e.srv = srv
	e.ts = httptest.NewServer(e.spans.wrap(srv.Handler()))
	return nil
}

// stop closes the listener and the partition, keeping the data dir.
func (e *rpEnv) stop() error {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.ts != nil {
		e.ts.Close()
		e.ts = nil
	}
	if e.srv == nil {
		return nil
	}
	err := e.srv.Close()
	e.srv = nil
	return err
}

func (e *rpEnv) close() {
	e.stop()
	os.RemoveAll(e.cfg.DataDir)
}

func (e *rpEnv) stats() (schedd.StatsResponse, error) {
	status, body, err := call(e.client, http.MethodGet, e.ts.URL+"/v1/stats", "", nil)
	var st schedd.StatsResponse
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return st, nil
}

// yearRun is one replayed year.
type yearRun struct {
	wall                time.Duration
	stats, submit       []time.Duration // by hour
	month, monthCPU     []float64       // wall and process CPU seconds by month
	residentPeak        int
	final               schedd.StatsResponse
	recover, recoverCPU time.Duration
}

// typical is the year's wall and CPU time taken as rpMonths times the
// median month, plus the restart: the months do the same work (one
// snapshot, a twelfth of the arrivals), so a month stretched by a
// stall on the machine barely moves it.
func (y yearRun) typical() (wall, cpu float64) {
	wall = rpMonths*quantile(y.month, 0.5) + y.recover.Seconds()
	cpu = rpMonths*quantile(y.monthCPU, 0.5) + y.recoverCPU.Seconds()
	return wall, cpu
}

// year replays every trace hour in a closed loop: advance the clock,
// GET /v1/stats (which pays the catch-up Step), submit the hour's
// arrivals. A failed request is counted and the replay goes on.
func (e *rpEnv) year(rep *report) (yearRun, error) {
	y := yearRun{
		stats:  make([]time.Duration, rpHours),
		submit: make([]time.Duration, rpHours),
	}
	start := time.Now()
	monthStart, monthCPU := start, cpuTime()
	for h := 0; h < rpHours; h++ {
		if h > 0 && h%(rpHours/rpMonths) == 0 {
			now, cpu := time.Now(), cpuTime()
			y.month = append(y.month, now.Sub(monthStart).Seconds())
			y.monthCPU = append(y.monthCPU, (cpu - monthCPU).Seconds())
			monthStart, monthCPU = now, cpu
		}
		e.hour.Store(int64(h))
		t0 := time.Now()
		rep.attempted++
		st, err := e.stats()
		if err != nil {
			rep.failed++
		}
		y.residentPeak = max(y.residentPeak, st.Unresolved)
		t1 := time.Now()
		for i, body := range e.bodies[h] {
			rep.attempted++
			status, resp, err := call(e.client, http.MethodPost, e.ts.URL+"/v1/jobs/batch", schedd.BinaryContentType, body)
			if err != nil || status != http.StatusOK {
				rep.failed++
				continue
			}
			if ack, err := schedd.DecodeBinaryAck(resp); err != nil || ack.Accepted != e.counts[h][i] {
				rep.failed++
			}
		}
		t2 := time.Now()
		y.stats[h], y.submit[h] = t1.Sub(t0), t2.Sub(t1)
	}
	y.month = append(y.month, time.Since(monthStart).Seconds())
	y.monthCPU = append(y.monthCPU, (cpuTime() - monthCPU).Seconds())
	e.hour.Store(rpHours)
	rep.attempted++
	final, err := e.stats()
	if err != nil {
		rep.failed++
		return y, err
	}
	y.wall, y.final = time.Since(start), final
	rep.check(final.Submitted == rpJobs && final.Completed+final.Missed == rpJobs,
		"year end: submitted %d, completed %d + missed %d, want %d", final.Submitted, final.Completed, final.Missed, rpJobs)
	return y, nil
}

// restart closes the partition and times schedd.New recovering it from
// the data directory, then checks the recovered state. The closed
// incarnation's memory is collected first, as a restarted process
// would not have it.
func (e *rpEnv) restart(y *yearRun, rep *report) error {
	if err := e.stop(); err != nil {
		return fmt.Errorf("closing the partition: %w", err)
	}
	runtime.GC()
	start, cpuStart := time.Now(), cpuTime()
	if err := e.serve(); err != nil {
		return err
	}
	y.recover, y.recoverCPU = time.Since(start), cpuTime()-cpuStart
	rep.attempted++
	rec := e.srv.Recovery()
	after, err := e.stats()
	if err != nil {
		rep.failed++
		return err
	}
	rep.check(rec.Recovered && rec.RecoveredJobs == rpJobs, "recovery restored %d jobs, want %d", rec.RecoveredJobs, rpJobs)
	rep.check(sameStats(y.final, after), "/v1/stats after the restart differs from before it")
	return nil
}

// sameStats compares two stats answers, leaving out the durability
// block, which describes the incarnation rather than the fleet.
func sameStats(a, b schedd.StatsResponse) bool {
	a.Durability, b.Durability = nil, nil
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

func runReplay(cfg runConfig, rep *report) error {
	env, setup, err := timedBuilds(setupRuns, func() (*rpEnv, error) { return newReplayEnv(cfg, false) })
	if err != nil {
		return err
	}
	defer env.close()
	y, err := env.year(rep)
	if err != nil {
		return err
	}
	if err := env.restart(&y, rep); err != nil {
		return err
	}
	fmt.Printf("replay-year      replay %.3f s, recover %.3f s, months %.2f s\n", y.wall.Seconds(), y.recover.Seconds(), y.month)
	wall, cpu := y.typical()
	rep.set("setup_s", quantile(setup, 0.5))
	rep.set("work_s", wall)
	rep.set("cpu_s", cpu)
	return nil
}

func traceReplay(cfg runConfig, rep *report) error {
	envA, err := newReplayEnv(cfg, false)
	if err != nil {
		return err
	}
	a, err := envA.year(rep)
	if err == nil {
		err = envA.restart(&a, rep)
	}
	envA.close()
	runtime.GC() // free the untraced world before the traced one is built
	if err != nil {
		return err
	}
	rep.set("e2e.replay_s", a.wall.Seconds())
	rep.set("e2e.recover_s", a.recover.Seconds())

	env, err := newReplayEnv(cfg, true)
	if err != nil {
		return err
	}
	defer env.close()
	y, err := env.year(rep)
	if err != nil {
		return err
	}
	p, err := scrape(env.ts.Client(), env.ts.URL+"/metrics")
	if err != nil {
		return err
	}
	setServerCounters(rep, p, rpJobs)
	setHandlerQuantiles(rep, env.spans, routeBatch, routeStats)
	rep.set("simgrid.generate_s", env.gen.Seconds())

	statsMs := make([]float64, rpHours)
	var snap, other []float64
	for h, d := range y.stats {
		statsMs[h] = ms(d)
		if h > 0 && h%rpSnapEvery == 0 {
			snap = append(snap, ms(d))
		} else {
			other = append(other, ms(d))
		}
	}
	var submit time.Duration
	for _, d := range y.submit {
		submit += d
	}
	rep.set("sched.step_ms_p50", quantile(statsMs, 0.5))
	rep.set("sched.step_ms_p99", quantile(statsMs, 0.99))
	rep.set("sched.snapshot_ms", mean(snap)-mean(other))
	rep.set("sched.resident_jobs_peak", float64(y.residentPeak))
	rep.set("schedd.resident_jobs_end", float64(y.final.Unresolved))
	rep.set("schedd.submit_ms_per_1k_jobs", ms(submit)/(rpJobs/1000))
	rep.set("budget.residual_pct", 100*(ms(y.wall)-env.spans.total())/ms(y.wall))
	aMonth, bMonth := quantile(a.month, 0.5), quantile(y.month, 0.5)
	rep.set("bench.trace_overhead_pct", 100*(bMonth-aMonth)/aMonth)

	if err := env.stop(); err != nil {
		return err
	}
	if err := journalLayers(env, rep); err != nil {
		return err
	}
	if err := env.restart(&y, rep); err != nil {
		return err
	}
	rep.set("e2e.error_rate", float64(rep.failed)/float64(rep.attempted))
	return nil
}

// journalLayers measures recovery's two halves on the closed data
// directory: wal.Replay over the live journal, and the same records
// applied through ApplyReplRecord into a fresh server restored from
// the matching snapshot — which must reproduce the year's outcome.
func journalLayers(e *rpEnv, rep *report) error {
	dir := e.cfg.DataDir
	journals, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(journals) == 0 {
		return fmt.Errorf("no journal in %s (%v)", dir, err)
	}
	sort.Strings(journals)
	var records [][]byte
	start := time.Now()
	if _, err := wal.Replay(journals[len(journals)-1], func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	}); err != nil {
		return fmt.Errorf("wal.Replay: %w", err)
	}
	rep.set("wal.replay_ms", ms(time.Since(start)))

	store, err := wal.OpenStore(dir)
	if err != nil {
		return err
	}
	gen, payload, err := store.LatestSnapshot()
	store.Close()
	if err != nil {
		return err
	}
	rep.set("wal.snapshot_bytes", float64(len(payload)))
	rep.check(journals[len(journals)-1] == store.JournalPath(gen), "live journal %s is not the newest snapshot's", journals[len(journals)-1])

	cfg := e.cfg
	cfg.DataDir = ""
	fresh, err := schedd.New(e.set, e.clusters, cfg)
	if err != nil {
		return err
	}
	if err := fresh.RestoreReplSnapshot(payload); err != nil {
		return err
	}
	start = time.Now()
	for _, r := range records {
		if err := fresh.ApplyReplRecord(r); err != nil {
			return fmt.Errorf("ApplyReplRecord: %w", err)
		}
	}
	rep.set("schedd.repl_apply_us_per_record", float64(time.Since(start).Microseconds())/float64(max(len(records), 1)))
	got := fresh.Snapshot()
	rep.check(got.Completed+got.Missed == rpJobs, "journal applied onto the snapshot resolves %d jobs, want %d", got.Completed+got.Missed, rpJobs)
	return nil
}
