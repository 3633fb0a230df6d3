package simgrid

import (
	"context"
	"sync"
	"testing"

	"carbonshift/internal/regions"
	"carbonshift/internal/trace"
)

func cacheTestConfig(seed uint64) Config {
	return Config{Seed: seed, Hours: 24 * 30}
}

func TestGenerateCachedMatchesGenerate(t *testing.T) {
	ResetCache()
	defer ResetCache()
	regs := regions.All()[:8]
	cfg := cacheTestConfig(3)
	plain, err := Generate(regs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := GenerateCached(context.Background(), regs, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range plain.Regions() {
		a, b := plain.MustGet(code), cached.MustGet(code)
		if len(a.CI) != len(b.CI) {
			t.Fatalf("%s: length %d vs %d", code, len(a.CI), len(b.CI))
		}
		for i := range a.CI {
			if a.CI[i] != b.CI[i] {
				t.Fatalf("%s: sample %d differs: %v vs %v", code, i, a.CI[i], b.CI[i])
			}
		}
	}
}

func TestCacheHitBehavior(t *testing.T) {
	ResetCache()
	defer ResetCache()
	regs := regions.All()[:5]
	cfg := cacheTestConfig(4)
	if _, err := GenerateCached(context.Background(), regs, cfg, 2); err != nil {
		t.Fatal(err)
	}
	hits, misses, entries := CacheStats()
	if hits != 0 || misses != 5 || entries != 5 {
		t.Fatalf("after cold run: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
	// Same config again: all hits, no new entries.
	warm, err := GenerateCached(context.Background(), regs, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, entries = CacheStats()
	if hits != 5 || misses != 5 || entries != 5 {
		t.Fatalf("after warm run: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
	// The warm run hands back the very same shared traces.
	tr1, _ := GenerateRegionCached(regs[0], cfg)
	if warm.MustGet(regs[0].Code) != tr1 {
		t.Fatal("warm run did not reuse the cached trace")
	}
	// A different config misses: the key covers every simulation input.
	other := cacheTestConfig(4)
	other.ExtraRenewables = 0.2
	if _, err := GenerateRegionCached(regs[0], other); err != nil {
		t.Fatal(err)
	}
	if _, misses, entries := CacheStats(); misses != 6 || entries != 6 {
		t.Fatalf("config change did not miss: misses=%d entries=%d", misses, entries)
	}
}

// Concurrent first requests for the same key must simulate once and
// share the result (single-flight), with no data races (-race).
func TestCacheConcurrentAccess(t *testing.T) {
	ResetCache()
	defer ResetCache()
	reg := regions.All()[0]
	cfg := cacheTestConfig(5)
	const goroutines = 16
	results := make([]*trace.Trace, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr, err := GenerateRegionCached(reg, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			_ = tr.Mean() // concurrent read of the shared trace
			results[g] = tr
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatal("concurrent requests produced distinct traces")
		}
	}
	if _, _, entries := CacheStats(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
}

// The key must cover the region's simulation inputs, not just its
// code: a modified Region sharing a catalog code gets its own entry.
func TestCacheKeyCoversRegionFields(t *testing.T) {
	ResetCache()
	defer ResetCache()
	reg := regions.All()[0]
	cfg := cacheTestConfig(8)
	base, err := GenerateRegionCached(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	greener := Greener(reg, 0.3)
	mod, err := GenerateRegionCached(greener, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mod == base {
		t.Fatal("modified region aliased to the catalog trace")
	}
	want, err := GenerateRegion(greener, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.CI {
		if mod.CI[i] != want.CI[i] {
			t.Fatalf("cached modified-region trace diverges from Generate at hour %d", i)
		}
	}
	if _, _, entries := CacheStats(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
}

// The cache is bounded: inserting past DefaultCacheLimit evicts the
// oldest entries FIFO instead of growing without bound.
func TestCacheEviction(t *testing.T) {
	ResetCache()
	defer ResetCache()
	reg := regions.All()[0]
	cfg := Config{Hours: 24} // tiny traces: eviction test only needs keys
	for seed := uint64(0); seed < DefaultCacheLimit+10; seed++ {
		cfg.Seed = seed
		if _, err := GenerateRegionCached(reg, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, entries := CacheStats(); entries != DefaultCacheLimit {
		t.Fatalf("entries = %d, want the %d cap", entries, DefaultCacheLimit)
	}
	// The earliest seeds were evicted: requesting one again re-misses.
	_, missesBefore, _ := CacheStats()
	cfg.Seed = 0
	if _, err := GenerateRegionCached(reg, cfg); err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := CacheStats(); misses != missesBefore+1 {
		t.Fatal("evicted entry did not re-miss")
	}
}

func TestResetCache(t *testing.T) {
	ResetCache()
	reg := regions.All()[0]
	if _, err := GenerateRegionCached(reg, cacheTestConfig(6)); err != nil {
		t.Fatal(err)
	}
	ResetCache()
	hits, misses, entries := CacheStats()
	if hits != 0 || misses != 0 || entries != 0 {
		t.Fatalf("after reset: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
}

func TestGenerateCachedValidates(t *testing.T) {
	ResetCache()
	defer ResetCache()
	if _, err := GenerateCached(context.Background(), nil, cacheTestConfig(7), 1); err == nil {
		t.Fatal("empty region list accepted")
	}
	bad := cacheTestConfig(7)
	bad.ExtraRenewables = 2
	if _, err := GenerateCached(context.Background(), regions.All()[:1], bad, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := GenerateGreenerCached(regions.All()[0], cacheTestConfig(7), []float64{0, 2}); err == nil {
		t.Fatal("invalid renewable share accepted")
	}
	if hits, misses, entries := CacheStats(); hits != 0 || misses != 0 || entries != 0 {
		t.Fatalf("rejected requests touched the cache: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
}

// GenerateGreenerCached shares one weather run across renewable shares;
// its traces must equal GenerateCached's at each share bit for bit, and
// it must count the same cache hits and misses along the way.
func TestGenerateGreenerCachedMatchesGenerateCached(t *testing.T) {
	defer ResetCache()
	regs := regions.All()[:6]
	cfg := cacheTestConfig(8)
	extras := []float64{0, 0.1, 0.3, 0.5}
	// Both sides first generate the base catalog, as a Lab does.
	ResetCache()
	if _, err := GenerateCached(context.Background(), regs, cfg, 2); err != nil {
		t.Fatal(err)
	}
	want := make([]*trace.Set, len(extras))
	for i, add := range extras {
		c := cfg
		c.ExtraRenewables = add
		var err error
		if want[i], err = GenerateCached(context.Background(), regs, c, 2); err != nil {
			t.Fatal(err)
		}
	}
	wantHits, wantMisses, wantEntries := CacheStats()

	ResetCache()
	if _, err := GenerateCached(context.Background(), regs, cfg, 2); err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		got, err := GenerateGreenerCached(r, cfg, extras)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range got {
			w := want[i].MustGet(r.Code)
			if tr.Region != w.Region || !tr.Start.Equal(w.Start) || len(tr.CI) != len(w.CI) {
				t.Fatalf("%s +%v: trace %s@%v/%d, want %s@%v/%d",
					r.Code, extras[i], tr.Region, tr.Start, len(tr.CI), w.Region, w.Start, len(w.CI))
			}
			for h := range tr.CI {
				if tr.CI[h] != w.CI[h] {
					t.Fatalf("%s +%v: hour %d is %v, want %v", r.Code, extras[i], h, tr.CI[h], w.CI[h])
				}
			}
		}
	}
	if hits, misses, entries := CacheStats(); hits != wantHits || misses != wantMisses || entries != wantEntries {
		t.Fatalf("hits=%d misses=%d entries=%d, GenerateCached counted %d/%d/%d",
			hits, misses, entries, wantHits, wantMisses, wantEntries)
	}
}
