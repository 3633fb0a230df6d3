// Package simgrid synthesizes hourly grid carbon-intensity traces for
// the catalog regions, standing in for the Electricity Maps dataset the
// paper collected (123 regions, 2020–2022, hourly).
//
// The simulator is a compact physical model of each regional grid:
//
//   - Demand follows diurnal, weekly, and seasonal cycles whose
//     amplitudes scale with the region's DemandSwing and latitude, plus
//     small Gaussian noise.
//   - Nuclear, geothermal, and biomass run as constant baseload.
//   - Hydro partially load-follows (dispatchable reservoir behaviour).
//   - Solar output follows a solar-elevation model driven by latitude,
//     day of year, and local hour, modulated by an autocorrelated cloud
//     process; the capacity is scaled so the annual energy share matches
//     the catalog mix.
//   - Wind is an autocorrelated stochastic process, likewise scaled to
//     its annual share.
//   - Fossil generation fills the residual demand. The split between
//     coal, gas, and oil tilts with the residual level: coal behaves as
//     baseload while gas and oil act as peakers, so the marginal fuel —
//     and hence carbon intensity — varies over the day.
//   - The mix itself drifts linearly over the simulated period by the
//     region's DeltaRenew, producing the 2020→2022 trends of Figure 3(b).
//
// Carbon intensity is the generation-weighted average emission factor,
// exactly as carbon information services compute it. The model
// reproduces the dataset-level statistics the paper's analysis rests on
// (see DESIGN.md) while remaining fully deterministic under a seed.
package simgrid

import (
	"fmt"
	"math"
	"time"

	"carbonshift/internal/regions"
	"carbonshift/internal/rng"
	"carbonshift/internal/trace"
)

// DefaultStart is the first simulated hour, matching the paper's study
// period.
var DefaultStart = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// DefaultHours covers 2020 (leap), 2021, and 2022.
const DefaultHours = 8784 + 8760 + 8760

// Config parameterizes a simulation run.
type Config struct {
	// Seed drives all stochastic components. The same seed always
	// produces the same traces.
	Seed uint64
	// Start is the first simulated hour (UTC). Zero means DefaultStart.
	Start time.Time
	// Hours is the number of hourly samples. Zero means DefaultHours.
	Hours int
	// ExtraRenewables shifts this fraction of every region's fossil
	// share into solar and wind before simulating, implementing the
	// "what if the grid gets greener" scenario of §6.3. It may be 0.
	ExtraRenewables float64
}

func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = DefaultStart
	}
	if c.Hours == 0 {
		c.Hours = DefaultHours
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Hours < 0 {
		return fmt.Errorf("simgrid: negative hours %d", c.Hours)
	}
	if c.ExtraRenewables < 0 || c.ExtraRenewables > 1 {
		return fmt.Errorf("simgrid: ExtraRenewables %v outside [0, 1]", c.ExtraRenewables)
	}
	return nil
}

// Demand-model amplitudes, as fractions of mean demand.
const (
	diurnalAmp  = 0.13
	weeklyAmp   = 0.04
	seasonalAmp = 0.06
	demandNoise = 0.012
	demandFloor = 0.40
)

// coalBaseload is the fraction of coal capacity that runs as must-run
// baseload; the rest load-follows alongside hydro, gas, and oil.
const coalBaseload = 0.8

// Flexible-dispatch tilt exponents: each flexible source's output
// responds to the residual-demand level with its own elasticity.
// Reservoir hydro flattens excursions (sub-linear), coal's flexible
// tranche is nearly proportional, and gas and oil are peakers whose
// share of generation grows super-linearly with demand — making gas/oil
// the marginal fuel and giving carbon intensity its diurnal shape.
const (
	hydroTilt    = 0.55
	coalFlexTilt = 0.9
	gasTilt      = 1.6
	oilTilt      = 2.6
)

// driftSpan converts DeltaRenew (defined as the change in year-mean
// renewable share from 2020 to 2022) into the total mix excursion over
// the simulated period: year means sit at ±1/3 of the span, so the span
// must be 1.5x the year-mean delta.
const driftSpan = 1.5

// Generate simulates all the given regions and returns the aligned
// trace set.
func Generate(regs []regions.Region, cfg Config) (*trace.Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	traces := make([]*trace.Trace, 0, len(regs))
	for _, r := range regs {
		traces = append(traces, simulate(r, cfg, rngFor(r.Code, cfg)))
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("simgrid: no regions given")
	}
	return trace.NewSet(traces)
}

// GenerateAll simulates the full 123-region catalog.
func GenerateAll(cfg Config) (*trace.Set, error) {
	return Generate(regions.All(), cfg)
}

// GenerateRegion simulates a single region.
func GenerateRegion(r regions.Region, cfg Config) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return simulate(r, cfg, rngFor(r.Code, cfg)), nil
}

// rngFor derives a region's generator from its code and the seed alone,
// so the per-region stream is independent of catalog order and of which
// worker goroutine simulates the region.
func rngFor(code string, cfg Config) *rng.Source {
	return rng.New(cfg.Seed ^ hashCode(code))
}

func hashCode(s string) uint64 {
	// FNV-1a, inlined to keep the package dependency-free.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Greener returns a copy of r with add fraction points of generation
// moved from fossil sources to solar and wind (split in proportion to
// their existing shares, or to solar alone if the region has neither).
// It is the mix transformation behind the §6.3 what-if.
func Greener(r regions.Region, add float64) regions.Region {
	r.Mix = shiftToRenewables(r.Mix, add)
	return r
}

// shiftToRenewables moves `shift` fraction points from fossil to
// solar+wind (negative shift moves the other way). The result is
// clamped so no share goes negative.
func shiftToRenewables(mix regions.Mix, shift float64) regions.Mix {
	if shift > 0 {
		if f := mix.FossilShare(); shift > f {
			shift = f
		}
	} else {
		if rshare := mix.RenewableShare(); -shift > rshare {
			shift = -rshare
		}
	}
	if shift == 0 {
		return mix
	}
	out := mix
	// Remove from the donor side proportionally.
	if shift > 0 {
		f := mix.FossilShare()
		for _, s := range []regions.Source{regions.Coal, regions.Gas, regions.Oil} {
			out[s] -= shift * mix[s] / f
		}
	} else {
		rshare := mix.RenewableShare()
		for _, s := range []regions.Source{regions.Solar, regions.Wind} {
			out[s] += shift * mix[s] / rshare // shift < 0: reduces
		}
	}
	// Add to the receiver side proportionally.
	if shift > 0 {
		rshare := mix.RenewableShare()
		if rshare == 0 {
			out[regions.Solar] += shift
		} else {
			out[regions.Solar] += shift * mix[regions.Solar] / rshare
			out[regions.Wind] += shift * mix[regions.Wind] / rshare
		}
	} else {
		f := mix.FossilShare()
		if f == 0 {
			out[regions.Gas] -= shift
		} else {
			for _, s := range []regions.Source{regions.Coal, regions.Gas, regions.Oil} {
				out[s] -= shift * mix[s] / f
			}
		}
	}
	return out
}

// simulate produces one region's hourly trace.
func simulate(r regions.Region, cfg Config, src *rng.Source) *trace.Trace {
	return mixTrace(r, cfg, newWeather(r, cfg, src))
}

// weather is the part of a region's simulation that does not depend on
// its generation mix: the solar and wind capacity-factor shapes and
// hourly demand. The greener-grid what-ifs (ExtraRenewables) reuse one
// weather run across every renewable share.
type weather struct {
	irr, wind         []float64
	irrMean, windMean float64
	demand            []float64
}

// newWeather draws a region's weather and demand from src. It consumes
// src exactly as simulation always has — cloud, wind, then demand
// streams — so traces do not depend on whether the weather is shared.
func newWeather(r regions.Region, cfg Config, src *rng.Source) *weather {
	n := cfg.Hours
	if n == 0 {
		return &weather{}
	}
	// Pre-generate the stochastic weather processes so they can be
	// normalized to unit mean (keeping annual energy shares on target).
	cloud := cloudSeries(n, src.Split())
	wind := windSeries(n, src.Split())
	irr := irradianceSeries(r, cfg.Start, n, cloud)

	demandSrc := src.Split()
	demand := make([]float64, n)
	for h := range demand {
		demand[h] = demandAt(r, cfg.Start.Add(time.Duration(h)*time.Hour), demandSrc)
	}
	return &weather{irr: irr, wind: wind, irrMean: mean(irr), windMean: mean(wind), demand: demand}
}

// mixTrace dispatches the region's drifting generation mix, shifted by
// cfg.ExtraRenewables, against the weather w and returns the hourly
// carbon intensity.
func mixTrace(r regions.Region, cfg Config, w *weather) *trace.Trace {
	n := cfg.Hours
	ci := make([]float64, n)
	if n == 0 {
		return trace.New(r.Code, cfg.Start, ci)
	}

	baseMix := r.Mix
	if cfg.ExtraRenewables > 0 {
		baseMix = shiftToRenewables(baseMix, cfg.ExtraRenewables)
	}

	half := float64(n-1) / 2
	for h := 0; h < n; h++ {
		d := w.demand[h]

		// Linear mix drift: progress -0.5 at the start of the study,
		// +0.5 at the end, so the catalog mix is the midpoint.
		progress := 0.0
		if n > 1 {
			progress = (float64(h) - half) / float64(n-1)
		}
		mix := shiftToRenewables(baseMix, driftSpan*r.DeltaRenew*progress)

		// Non-dispatchable and must-run generation.
		solar := 0.0
		if w.irrMean > 0 {
			solar = mix[regions.Solar] * w.irr[h] / w.irrMean
		}
		wnd := 0.0
		if w.windMean > 0 {
			wnd = mix[regions.Wind] * w.wind[h] / w.windMean
		}
		coalBase := coalBaseload * mix[regions.Coal]
		baseload := mix[regions.Nuclear] + mix[regions.Geothermal] +
			mix[regions.Biomass] + coalBase

		// Flexible sources share the residual: demand net of must-run
		// and weather-driven generation. Hydro absorbs both demand
		// excursions and renewable shortfalls, which is what keeps
		// hydro-dominated grids (Sweden, Quebec, Norway) at a low,
		// stable intensity.
		residual := d - solar - wnd - baseload
		var hydro, coalFlex, gas, oil float64
		if residual <= 0 {
			// Oversupply: curtail wind first, then solar, then shed
			// must-run coal. Flexible sources stay off.
			excess := -residual
			cut := math.Min(excess, wnd)
			wnd -= cut
			excess -= cut
			cut = math.Min(excess, solar)
			solar -= cut
			excess -= cut
			cut = math.Min(excess, coalBase)
			coalBase -= cut
			baseload -= cut
		} else {
			hydro, coalFlex, gas, oil = dispatchFlexible(mix, residual)
		}
		coal := coalBase + coalFlex

		total := solar + wnd + baseload - coalBase + hydro + coal + gas + oil
		if total <= 0 {
			// Degenerate (zero-demand) hour; carry the mix-weighted
			// average forward.
			ci[h] = mix.NominalCI()
			continue
		}
		em := coal*regions.Coal.EmissionFactor() +
			gas*regions.Gas.EmissionFactor() +
			oil*regions.Oil.EmissionFactor() +
			solar*regions.Solar.EmissionFactor() +
			wnd*regions.Wind.EmissionFactor() +
			hydro*regions.Hydro.EmissionFactor() +
			mix[regions.Nuclear]*regions.Nuclear.EmissionFactor() +
			mix[regions.Geothermal]*regions.Geothermal.EmissionFactor() +
			mix[regions.Biomass]*regions.Biomass.EmissionFactor()
		ci[h] = em / total
	}
	return trace.New(r.Code, cfg.Start, ci)
}

// dispatchFlexible splits the residual demand among the flexible
// sources: hydro, the non-baseload tranche of coal, gas, and oil. Each
// source's target output tilts with the residual level relative to its
// annual share (see the tilt constants), then the outputs are rescaled
// so they sum exactly to the residual, preserving energy balance and
// keeping annual energy shares near the catalog mix.
func dispatchFlexible(mix regions.Mix, residual float64) (hydro, coalFlex, gas, oil float64) {
	hydroShare := mix[regions.Hydro]
	coalFlexShare := (1 - coalBaseload) * mix[regions.Coal]
	flex := hydroShare + coalFlexShare + mix[regions.Gas] + mix[regions.Oil]
	if flex <= 0 {
		// No flexible capacity: the residual is met by (implicit)
		// imports at gas-like intensity so energy still balances.
		return 0, 0, residual, 0
	}
	level := residual / flex // ~1 at average conditions
	hydro = hydroShare * math.Pow(level, hydroTilt)
	coalFlex = coalFlexShare * math.Pow(level, coalFlexTilt)
	gas = mix[regions.Gas] * math.Pow(level, gasTilt)
	oil = mix[regions.Oil] * math.Pow(level, oilTilt)
	sum := hydro + coalFlex + gas + oil
	if sum <= 0 {
		return 0, 0, residual, 0
	}
	scale := residual / sum
	return hydro * scale, coalFlex * scale, gas * scale, oil * scale
}

// demandAt evaluates the demand model (mean 1) for the region at ts.
func demandAt(r regions.Region, ts time.Time, src *rng.Source) float64 {
	localHour := float64(ts.Hour()) + float64(ts.Minute())/60 + r.Lon/15
	doy := float64(ts.YearDay())

	// Two-harmonic diurnal shape peaking in the early evening with a
	// secondary morning shoulder.
	diurnal := 0.8*math.Cos(2*math.Pi*(localHour-17)/24) +
		0.2*math.Cos(4*math.Pi*(localHour-9)/24)

	weekly := 0.3
	if wd := ts.Weekday(); wd == time.Saturday || wd == time.Sunday {
		weekly = -0.75
	}

	// Seasonal demand peaks in local winter, scaled by latitude
	// (tropical grids have flat seasons).
	peakDoy := 15.0
	if r.Lat < 0 {
		peakDoy = 196
	}
	seasonal := math.Cos(2 * math.Pi * (doy - peakDoy) / 365.25)
	latScale := math.Min(1, math.Abs(r.Lat)/50)

	d := 1 +
		diurnalAmp*r.DemandSwing*diurnal +
		weeklyAmp*r.DemandSwing*weekly +
		seasonalAmp*latScale*seasonal +
		src.Norm(0, demandNoise)
	if d < demandFloor {
		d = demandFloor
	}
	return d
}

// irradianceSeries returns the solar capacity-factor shape for the
// region: solar elevation (latitude, declination, local hour) times the
// cloud process.
func irradianceSeries(r regions.Region, start time.Time, n int, cloud []float64) []float64 {
	out := make([]float64, n)
	latRad := r.Lat * math.Pi / 180
	for h := 0; h < n; h++ {
		ts := start.Add(time.Duration(h) * time.Hour)
		doy := float64(ts.YearDay())
		decl := 23.45 * math.Pi / 180 * math.Sin(2*math.Pi*(284+doy)/365.25)
		localHour := float64(ts.Hour()) + r.Lon/15
		hourAngle := (localHour - 12) * 15 * math.Pi / 180
		sinElev := math.Sin(latRad)*math.Sin(decl) +
			math.Cos(latRad)*math.Cos(decl)*math.Cos(hourAngle)
		if sinElev < 0 {
			sinElev = 0
		}
		out[h] = sinElev * cloud[h]
	}
	return out
}

// cloudSeries is a slowly varying attenuation factor in [0.25, 1].
func cloudSeries(n int, src *rng.Source) []float64 {
	out := make([]float64, n)
	x := src.Norm(0, 1)
	const phi = 0.995
	sigma := math.Sqrt(1 - phi*phi)
	for h := 0; h < n; h++ {
		x = phi*x + src.Norm(0, sigma)
		// Map the unit-variance AR(1) through a logistic into the
		// attenuation range.
		out[h] = 0.25 + 0.75/(1+math.Exp(-1.2*x))
	}
	return out
}

// windSeries is an autocorrelated capacity-factor process in (0, 1).
func windSeries(n int, src *rng.Source) []float64 {
	out := make([]float64, n)
	x := src.Norm(0, 1)
	const phi = 0.985
	sigma := math.Sqrt(1 - phi*phi)
	for h := 0; h < n; h++ {
		x = phi*x + src.Norm(0, sigma)
		out[h] = 1 / (1 + math.Exp(-1.1*x))
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
