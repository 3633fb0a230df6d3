package simgrid

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"carbonshift/internal/engine"
	"carbonshift/internal/regions"
	"carbonshift/internal/trace"
)

// The process-level trace cache. Simulating one region for the full
// study period costs tens of milliseconds; experiments such as the
// greener-grid what-ifs (Figure 11c–d) and every freshly constructed
// Lab used to re-simulate identical (region, config) pairs from
// scratch. The cache memoizes each simulated trace by its full input
// fingerprint so any given trace is generated exactly once per process,
// no matter how many experiments, labs, or benchmark iterations ask for
// it.
//
// Cached traces are shared and must be treated as immutable; every
// consumer in this repository only reads them. Entries use a
// single-flight sync.Once so concurrent first requests for the same key
// simulate once and everyone else blocks on the result.
//
// The key covers every input the simulation reads — the region's
// simulation-relevant fields as well as the config — so a Region value
// that shares a code with a catalog entry but carries, say, a modified
// mix (regions built via Greener, custom what-ifs) gets its own entry
// rather than silently aliasing the catalog trace.
type cacheKey struct {
	code        string
	lat, lon    float64
	mix         regions.Mix
	deltaRenew  float64
	demandSwing float64
	seed        uint64
	start       int64 // unix seconds of cfg.Start
	hours       int
	extra       float64
}

type cacheEntry struct {
	once sync.Once
	tr   *trace.Trace
}

// DefaultCacheLimit bounds the number of cached traces. A full-period
// trace is ~210 KB, so the default caps the cache near 220 MB — enough
// to hold the base catalog plus every greener-grid what-if of a full
// experiment run (123 × 6 = 738 entries: the base catalog and five
// added-renewable steps) without letting multi-seed sweeps grow the
// process without bound. When the limit is exceeded the oldest entries
// are evicted FIFO; evicted traces remain valid for holders and are
// simply re-simulated on the next request.
const DefaultCacheLimit = 1024

var traceCache = struct {
	mu     sync.Mutex
	m      map[cacheKey]*cacheEntry
	order  []cacheKey // insertion order, for FIFO eviction
	hits   atomic.Uint64
	misses atomic.Uint64
}{m: make(map[cacheKey]*cacheEntry)}

func keyFor(r regions.Region, cfg Config) cacheKey {
	return cacheKey{
		code:        r.Code,
		lat:         r.Lat,
		lon:         r.Lon,
		mix:         r.Mix,
		deltaRenew:  r.DeltaRenew,
		demandSwing: r.DemandSwing,
		seed:        cfg.Seed,
		start:       cfg.Start.UTC().Unix(),
		hours:       cfg.Hours,
		extra:       cfg.ExtraRenewables,
	}
}

// GenerateRegionCached simulates a single region through the
// process-level cache: the first request for a (region, config) pair
// pays the simulation, every later one returns the shared trace.
func GenerateRegionCached(r regions.Region, cfg Config) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	e := cacheEntryFor(keyFor(r, cfg))
	e.once.Do(func() {
		e.tr = simulate(r, cfg, rngFor(r.Code, cfg))
	})
	return e.tr, nil
}

// GenerateGreenerCached returns one region's traces with each of the
// given ExtraRenewables shares (cfg.ExtraRenewables is ignored), in
// order. Every trace goes through the process-level cache under the
// same key GenerateRegionCached uses, and the region's weather and
// demand, which do not depend on the mix, are simulated at most once
// per call however many shares miss the cache.
func GenerateGreenerCached(r regions.Region, cfg Config, extras []float64) ([]*trace.Trace, error) {
	cfgs := make([]Config, len(extras))
	for i, add := range extras {
		cfgs[i] = cfg
		cfgs[i].ExtraRenewables = add
		if err := cfgs[i].Validate(); err != nil {
			return nil, err
		}
		cfgs[i] = cfgs[i].withDefaults()
	}
	var w *weather
	out := make([]*trace.Trace, len(cfgs))
	for i, c := range cfgs {
		e := cacheEntryFor(keyFor(r, c))
		e.once.Do(func() {
			if w == nil {
				w = newWeather(r, c, rngFor(r.Code, c))
			}
			e.tr = mixTrace(r, c, w)
		})
		out[i] = e.tr
	}
	return out, nil
}

// cacheEntryFor returns the cache entry for key, creating it if absent,
// and counts the request as a hit or a miss.
func cacheEntryFor(key cacheKey) *cacheEntry {
	traceCache.mu.Lock()
	e, ok := traceCache.m[key]
	if !ok {
		e = &cacheEntry{}
		traceCache.m[key] = e
		traceCache.order = append(traceCache.order, key)
		// FIFO eviction keeps the cache bounded; in-flight holders of
		// an evicted entry keep their (immutable) trace.
		for len(traceCache.m) > DefaultCacheLimit {
			oldest := traceCache.order[0]
			traceCache.order = traceCache.order[1:]
			delete(traceCache.m, oldest)
		}
	}
	traceCache.mu.Unlock()
	if ok {
		traceCache.hits.Add(1)
	} else {
		traceCache.misses.Add(1)
	}
	return e
}

// GenerateCached simulates all the given regions through the cache,
// fanning uncached regions across at most `workers` goroutines (0 means
// one per CPU, 1 forces serial). The returned set is identical to
// Generate's for the same inputs.
func GenerateCached(ctx context.Context, regs []regions.Region, cfg Config, workers int) (*trace.Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(regs) == 0 {
		return nil, fmt.Errorf("simgrid: no regions given")
	}
	cfg = cfg.withDefaults()
	traces, err := engine.Map(ctx, workers, len(regs), func(ctx context.Context, i int) (*trace.Trace, error) {
		return GenerateRegionCached(regs[i], cfg)
	})
	if err != nil {
		return nil, err
	}
	return trace.NewSet(traces)
}

// CacheStats reports the cache's lifetime hit and miss counts and its
// current entry count.
func CacheStats() (hits, misses uint64, entries int) {
	traceCache.mu.Lock()
	entries = len(traceCache.m)
	traceCache.mu.Unlock()
	return traceCache.hits.Load(), traceCache.misses.Load(), entries
}

// ResetCache drops every cached trace and zeroes the counters. It
// exists for tests and for benchmarks that want to time cold
// generation.
func ResetCache() {
	traceCache.mu.Lock()
	traceCache.m = make(map[cacheKey]*cacheEntry)
	traceCache.order = nil
	traceCache.mu.Unlock()
	traceCache.hits.Store(0)
	traceCache.misses.Store(0)
}
