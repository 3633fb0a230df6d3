package main

// offline-repro: what one `carbonlimits -all` invocation pays. Every
// run starts from an empty simgrid cache and a fresh core.Lab, then
// runs all core.Experiments() in registry order with default workers.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"time"

	"carbonshift/internal/core"
	"carbonshift/internal/simgrid"
)

// offlineLayers are the experiments reported as their own spans; every
// other experiment is summed into core.rest_*.
var offlineLayers = []string{"fig4", "fig6a", "fig7", "fig10d", "fig11b", "fig11d"}

// offlineCrossCheck are cheap experiments re-run on a one-worker lab:
// the engine guarantees byte-identical tables for any worker count,
// which checks outputs for seeds without a recorded digest.
var offlineCrossCheck = []string{"fig4", "fig5c", "fig11a"}

// offlineLab is one set-up: the lab plus its generation span.
type offlineLab struct {
	lab       *core.Lab
	wall, cpu time.Duration
}

func (offlineLab) close() {}

func newOfflineLab(seed uint64) (offlineLab, error) {
	simgrid.ResetCache()
	cpu0, start := cpuTime(), time.Now()
	lab, err := core.NewLab(core.Options{Sim: simgrid.Config{Seed: seed}})
	if err != nil {
		return offlineLab{}, fmt.Errorf("core.NewLab: %w", err)
	}
	return offlineLab{lab, time.Since(start), cpuTime() - cpu0}, nil
}

// expSpan is one experiment's wall and (traced runs only) CPU time.
type expSpan struct {
	id        string
	wall, cpu time.Duration
}

// figuresPass is one pass over every experiment.
type figuresPass struct {
	total   time.Duration
	cpu     time.Duration // process CPU over the whole pass
	spans   []expSpan
	digests map[string]string
	digest  string // over every table, in registry order
}

// runFigures runs every experiment on lab in registry order. traced
// adds a CPU-time reading around each experiment.
func runFigures(lab *core.Lab, traced bool, rep *report) figuresPass {
	ctx := context.Background()
	p := figuresPass{digests: map[string]string{}}
	all := sha256.New()
	start, cpuStart := time.Now(), cpuTime()
	for _, exp := range core.Experiments() {
		rep.attempted++
		var cpu0 time.Duration
		if traced {
			cpu0 = cpuTime()
		}
		t0 := time.Now()
		tbl, err := exp.Run(ctx, lab)
		sp := expSpan{id: exp.ID, wall: time.Since(t0)}
		if traced {
			sp.cpu = cpuTime() - cpu0
		}
		p.spans = append(p.spans, sp)
		if err != nil {
			rep.failed++
			rep.check(false, "%s: %v", exp.ID, err)
			continue
		}
		d := tableDigest(tbl)
		rep.check(len(tbl.Rows) > 0 && finiteTable(tbl), "%s: empty table or non-finite value", exp.ID)
		p.digests[exp.ID] = d
		fmt.Fprintf(all, "%s %s\n", exp.ID, d)
	}
	p.total, p.cpu = time.Since(start), cpuTime()-cpuStart
	p.digest = hex.EncodeToString(all.Sum(nil))
	return p
}

func tableDigest(t *core.Table) string {
	h := sha256.New()
	if err := t.WriteCSV(h); err != nil {
		return "unwritable: " + err.Error()
	}
	for _, n := range t.Notes {
		io.WriteString(h, n+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

func finiteTable(t *core.Table) bool {
	for _, r := range t.Rows {
		for _, v := range r.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// checkOffline verifies a pass's tables: the recorded digest for the
// seed when there is one, the paper's 375.0 g/kWh global mean at seed
// 1, and, for any seed, that a one-worker lab reproduces the
// cross-check experiments byte for byte.
func checkOffline(cfg runConfig, lab *core.Lab, p figuresPass, rep *report) error {
	fmt.Printf("offline-repro    tables digest (seed %d) %s\n", cfg.seed, p.digest)
	if want, ok := offlineDigests[cfg.seed]; ok {
		rep.check(p.digest == want, "seed %d: tables digest %s, recorded %s", cfg.seed, p.digest, want)
	}
	if cfg.seed == 1 {
		got := fmt.Sprintf("%.1f", lab.GlobalMean)
		rep.check(got == "375.0", "seed 1: global mean %s g/kWh, want 375.0", got)
	}
	serial, err := core.NewLab(core.Options{Sim: simgrid.Config{Seed: cfg.seed}, Workers: 1})
	if err != nil {
		return fmt.Errorf("core.NewLab (1 worker): %w", err)
	}
	for _, id := range offlineCrossCheck {
		exp, err := core.ExperimentByID(id)
		if err != nil {
			return err
		}
		tbl, err := exp.Run(context.Background(), serial)
		if err != nil {
			rep.check(false, "%s (1 worker): %v", id, err)
			continue
		}
		rep.check(tableDigest(tbl) == p.digests[id], "%s: 1-worker table differs from the parallel one", id)
	}
	return nil
}

func runOffline(cfg runConfig, rep *report) error {
	env, setup, err := timedBuilds(setupRuns, func() (offlineLab, error) { return newOfflineLab(cfg.seed) })
	if err != nil {
		return err
	}
	p := runFigures(env.lab, false, rep)
	if err := checkOffline(cfg, env.lab, p, rep); err != nil {
		return err
	}
	rep.set("setup_s", quantile(setup, 0.5))
	rep.set("work_s", p.total.Seconds())
	rep.set("cpu_s", p.cpu.Seconds())
	return nil
}

func traceOffline(cfg runConfig, rep *report) error {
	base, err := newOfflineLab(cfg.seed)
	if err != nil {
		return err
	}
	untraced := runFigures(base.lab, false, rep)

	env, err := newOfflineLab(cfg.seed)
	if err != nil {
		return err
	}
	p := runFigures(env.lab, true, rep)
	hits, misses, _ := simgrid.CacheStats()
	if err := checkOffline(cfg, env.lab, p, rep); err != nil {
		return err
	}
	rep.check(p.digest == untraced.digest, "traced and untraced passes produced different tables")

	rep.set("e2e.figures_s", untraced.total.Seconds())
	rep.set("e2e.error_rate", float64(rep.failed)/float64(rep.attempted))
	rep.set("simgrid.generate_s", env.wall.Seconds())
	rep.set("simgrid.generate_cpu_s", env.cpu.Seconds())
	rep.set("simgrid.cache_hits", float64(hits))
	rep.set("simgrid.cache_misses", float64(misses))
	named := map[string]bool{}
	for _, id := range offlineLayers {
		named[id] = true
	}
	var wall, cpu, restWall, restCPU time.Duration
	for _, sp := range p.spans {
		wall += sp.wall
		cpu += sp.cpu
		if named[sp.id] {
			rep.set("core."+sp.id+"_s", sp.wall.Seconds())
			rep.set("core."+sp.id+"_cpu_s", sp.cpu.Seconds())
		} else {
			restWall += sp.wall
			restCPU += sp.cpu
		}
	}
	rep.set("core.rest_s", restWall.Seconds())
	rep.set("core.rest_cpu_s", restCPU.Seconds())
	rep.set("engine.cpu_per_wall", cpu.Seconds()/wall.Seconds())
	rep.set("budget.residual_pct", 100*(p.total-wall).Seconds()/p.total.Seconds())
	rep.set("bench.trace_overhead_pct", 100*(p.total-untraced.total).Seconds()/untraced.total.Seconds())
	return nil
}
