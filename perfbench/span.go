package main

// The benchmark's own tracing: timing handlers wrapped around the
// program's HTTP handlers from outside, and a reader for the counters
// the program already exports on /metrics. Nothing here reaches inside
// the program.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Route names shared by the gateway and the partitions.
const (
	routeBatch  = "batch"  // POST /v1/jobs/batch
	routeSingle = "single" // POST /v1/jobs
	routeLookup = "lookup" // GET /v1/jobs/{id}
	routeStats  = "stats"  // GET /v1/stats
	routeOther  = "other"
)

func routeOf(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs/batch":
		return routeBatch
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return routeSingle
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return routeLookup
	case r.Method == http.MethodGet && r.URL.Path == "/v1/stats":
		return routeStats
	}
	return routeOther
}

// spanLog keeps the duration of every request a wrapped handler
// served, by route, in memory until the run ends.
type spanLog struct {
	mu      sync.Mutex
	byRoute map[string][]time.Duration
}

func newSpanLog() *spanLog { return &spanLog{byRoute: map[string][]time.Duration{}} }

// wrap times h. A nil log returns h unchanged, so untraced runs serve
// the program's handler as is.
func (l *spanLog) wrap(h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		route := routeOf(r)
		l.mu.Lock()
		l.byRoute[route] = append(l.byRoute[route], d)
		l.mu.Unlock()
	})
}

// spans returns the route's durations in milliseconds.
func (l *spanLog) spans(route string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, len(l.byRoute[route]))
	for i, d := range l.byRoute[route] {
		out[i] = ms(d)
	}
	return out
}

// total is the summed duration of every span, all routes, in ms.
func (l *spanLog) total() float64 {
	var t float64
	for _, r := range []string{routeBatch, routeSingle, routeLookup, routeStats, routeOther} {
		t += sum(l.spans(r))
	}
	return t
}

// setHandlerQuantiles reports p50 and p99 of each partition route as
// schedd.<route>_handler_ms_p50/_p99.
func setHandlerQuantiles(rep *report, l *spanLog, routes ...string) {
	for _, route := range routes {
		s := l.spans(route)
		rep.set("schedd."+route+"_handler_ms_p50", quantile(s, 0.5))
		rep.set("schedd."+route+"_handler_ms_p99", quantile(s, 0.99))
	}
}

// promSamples is one /metrics scrape: series key (name plus label set,
// as exposed) to value.
type promSamples map[string]float64

// scrape reads a Prometheus text exposition.
func scrape(client *http.Client, url string) (promSamples, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	p, err := parseProm(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return p, nil
}

// parseProm reads the sample lines of a text exposition.
func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad sample %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named family (all label sets).
func (p promSamples) sum(name string) float64 {
	var t float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// add merges other into p, summing series present in both.
func (p promSamples) add(other promSamples) {
	for k, v := range other {
		p[k] += v
	}
}

// histMax is the upper edge of the lowest bucket of a histogram that
// holds every observation — the finest bound on the maximum the
// exposition allows (0 with no observations).
func (p promSamples) histMax(name string) float64 {
	total := p[name+"_count"]
	if total == 0 {
		return 0
	}
	var edges []float64
	counts := map[float64]float64{}
	for k, v := range p {
		rest, ok := strings.CutPrefix(k, name+`_bucket{le="`)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue
		}
		edges = append(edges, le)
		counts[le] = v
	}
	sort.Float64s(edges)
	for _, le := range edges {
		if counts[le] >= total {
			return le
		}
	}
	return math.Inf(1)
}
