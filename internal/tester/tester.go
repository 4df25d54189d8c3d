// Package tester models the measurement-acquisition pathologies of real
// side-channel test equipment. The power model (internal/power) produces
// well-behaved readings — process variation plus optional Gaussian
// measurement noise — but real testers also suffer outlier spikes (probe
// bounce, supply glitches), dropped readings (trigger misses, ADC
// overrange), slow thermal drift, burst-noise windows and stuck ADC
// latches. A FaultModel wraps the reading stream with these injectable
// pathologies so the acquisition layer in internal/core can be exercised
// — and hardened — against them.
//
// Like every stochastic component of the toolchain, a FaultModel is
// seeded and bit-reproducible: the same configuration applied to the same
// reading stream perturbs it identically.
package tester

import (
	"fmt"
	"math"
	"sort"

	"superpose/internal/stats"
)

// Config parameterizes the injectable pathologies. The zero value is an
// ideal tester (every fault disabled). All rates are per-reading
// probabilities; magnitudes are relative to the clean reading.
type Config struct {
	// Seed selects the fault realization.
	Seed uint64

	// SpikeRate is the probability a reading is contaminated by an
	// outlier spike; SpikeMag is the spike's magnitude — the reading is
	// multiplied by a heavy-tailed factor of at least SpikeMag.
	SpikeRate float64
	SpikeMag  float64

	// DropRate is the probability a reading is lost entirely (the tester
	// reports NaN: trigger miss, ADC overrange).
	DropRate float64

	// DriftPerReading is a slow thermal ramp: reading i is scaled by
	// (1 + DriftPerReading·i). DriftAmplitude/DriftPeriod add a
	// sinusoidal component (period in readings; default 4096 when an
	// amplitude is configured).
	DriftPerReading float64
	DriftAmplitude  float64
	DriftPeriod     float64

	// BurstRate is the probability a burst-noise window opens at a
	// reading; for the next BurstLen readings (default 16) every reading
	// carries extra relative Gaussian noise of sigma BurstSigma.
	BurstRate  float64
	BurstLen   int
	BurstSigma float64

	// StuckRate is the probability the ADC latches at a reading: the
	// latched value is repeated for the next StuckLen readings (default 8).
	StuckRate float64
	StuckLen  int
}

// Enabled reports whether any pathology is configured.
func (c Config) Enabled() bool {
	return c.SpikeRate > 0 || c.DropRate > 0 ||
		c.DriftPerReading != 0 || c.DriftAmplitude > 0 ||
		c.BurstRate > 0 || c.StuckRate > 0
}

// Validate checks rates and magnitudes for sanity.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"SpikeRate", c.SpikeRate}, {"DropRate", c.DropRate},
		{"BurstRate", c.BurstRate}, {"StuckRate", c.StuckRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("tester: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.SpikeRate > 0 && c.SpikeMag <= 1 {
		return fmt.Errorf("tester: SpikeMag %v must exceed 1 when spikes are enabled", c.SpikeMag)
	}
	if c.BurstRate > 0 && c.BurstSigma <= 0 {
		return fmt.Errorf("tester: BurstSigma %v must be positive when bursts are enabled", c.BurstSigma)
	}
	return nil
}

// Stats counts what the fault model did to the reading stream — ground
// truth for tests and diagnostics; the defender's acquisition layer keeps
// its own (observable) counters.
type Stats struct {
	Readings uint64 // readings passed through the model
	Spiked   uint64
	Dropped  uint64
	Burst    uint64 // readings inside a burst window
	Stuck    uint64 // readings replaced by a latched value
}

// FaultModel applies a Config to a stream of readings. Not safe for
// concurrent use (like the chip it perturbs).
type FaultModel struct {
	cfg   Config
	rng   *stats.RNG
	index uint64 // readings seen so far (drives drift)

	burstLeft int
	stuckLeft int
	stuckVal  float64

	st Stats
}

// New returns a fault model for the configuration. It panics on an
// invalid configuration (construction-time programming error, like the
// power model's negative-sigma check).
func New(cfg Config) *FaultModel {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.BurstLen <= 0 {
		cfg.BurstLen = 16
	}
	if cfg.StuckLen <= 0 {
		cfg.StuckLen = 8
	}
	if cfg.DriftAmplitude > 0 && cfg.DriftPeriod <= 0 {
		cfg.DriftPeriod = 4096
	}
	return &FaultModel{
		cfg: cfg,
		rng: stats.NewRNG(cfg.Seed ^ 0xAC9D15E0FAB71E57),
	}
}

// Config returns the model's configuration (with defaults filled in).
func (f *FaultModel) Config() Config { return f.cfg }

// Stats returns the ground-truth fault counters so far.
func (f *FaultModel) Stats() Stats { return f.st }

// Apply transforms one clean reading into what the tester reports. NaN
// marks a dropped reading. The model is stateful: drift advances with
// every reading, and burst/stuck windows span consecutive readings.
func (f *FaultModel) Apply(v float64) float64 {
	i := f.index
	f.index++
	f.st.Readings++

	// A latched ADC repeats its value regardless of the input.
	if f.stuckLeft > 0 {
		f.stuckLeft--
		f.st.Stuck++
		return f.stuckVal
	}

	// Slow deterministic drift (thermal ramp plus periodic component).
	if f.cfg.DriftPerReading != 0 {
		v *= 1 + f.cfg.DriftPerReading*float64(i)
	}
	if f.cfg.DriftAmplitude > 0 {
		v *= 1 + f.cfg.DriftAmplitude*math.Sin(2*math.Pi*float64(i)/f.cfg.DriftPeriod)
	}

	// Dropped reading.
	if f.cfg.DropRate > 0 && f.rng.Float64() < f.cfg.DropRate {
		f.st.Dropped++
		return math.NaN()
	}

	// Heavy-tailed outlier spike: at least SpikeMag×, with a 1/√u tail so
	// occasional spikes land far beyond the configured magnitude.
	if f.cfg.SpikeRate > 0 && f.rng.Float64() < f.cfg.SpikeRate {
		tail := 1 / math.Sqrt(1-f.rng.Float64())
		v *= f.cfg.SpikeMag * tail
		f.st.Spiked++
	}

	// Burst-noise window.
	if f.cfg.BurstRate > 0 {
		if f.burstLeft == 0 && f.rng.Float64() < f.cfg.BurstRate {
			f.burstLeft = f.cfg.BurstLen
		}
		if f.burstLeft > 0 {
			f.burstLeft--
			f.st.Burst++
			v += v * f.cfg.BurstSigma * f.rng.Norm()
		}
	}

	// Stuck latch: this reading's (possibly already perturbed) value
	// repeats for the next StuckLen readings.
	if f.cfg.StuckRate > 0 && f.rng.Float64() < f.cfg.StuckRate {
		f.stuckVal = v
		f.stuckLeft = f.cfg.StuckLen
	}
	return v
}

// Preset returns a named pathology configuration. The presets are the
// regimes of the tester-fault robustness table (EXPERIMENTS.md): "clean"
// (no faults), "spikes" (heavy-tailed contamination plus occasional
// drops), "drift" (thermal ramp plus a slow sinusoid), "burst"
// (burst-noise windows and stuck latches), "stuck" (aggressive ADC
// latching alone — long identical runs that only the stuck-latch guard
// catches), and "combined" (all of the above, with ≥1% spike
// contamination at 10× magnitude).
func Preset(name string, seed uint64) (Config, error) {
	c := Config{Seed: seed}
	switch name {
	case "clean", "none", "":
		// ideal tester
	case "spikes":
		c.SpikeRate, c.SpikeMag = 0.02, 10
		c.DropRate = 0.005
	case "drift":
		c.DriftPerReading = 2e-6
		c.DriftAmplitude, c.DriftPeriod = 0.02, 4096
	case "burst":
		c.BurstRate, c.BurstLen, c.BurstSigma = 0.002, 16, 0.25
		c.StuckRate, c.StuckLen = 0.0005, 8
	case "stuck":
		c.StuckRate, c.StuckLen = 0.01, 24
	case "combined":
		c.SpikeRate, c.SpikeMag = 0.015, 10
		c.DropRate = 0.003
		c.DriftPerReading = 2e-6
		c.DriftAmplitude, c.DriftPeriod = 0.02, 4096
		c.BurstRate, c.BurstLen, c.BurstSigma = 0.001, 16, 0.2
		c.StuckRate, c.StuckLen = 0.0003, 8
	default:
		return Config{}, fmt.Errorf("tester: unknown preset %q (have %v)", name, PresetNames())
	}
	return c, nil
}

// PresetNames lists the named configurations of Preset.
func PresetNames() []string {
	names := []string{"clean", "spikes", "drift", "burst", "stuck", "combined"}
	sort.Strings(names)
	return names
}
