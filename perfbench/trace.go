package main

import (
	"runtime"
	"time"

	"superpose/internal/atpg"
	"superpose/internal/core"
	"superpose/internal/netlist"
)

// The core stages the traced runs split a certify into. Seed ranking has
// no span of its own: with shared seeds it is a short prologue, folded
// into calibrate.
var coreStages = []string{"calibrate", "adaptive", "pairs", "confirm"}

func stageOf(s core.Stage) string {
	if s == core.StageSeeds {
		return "calibrate"
	}
	return string(s)
}

// stageClock turns one Detect call's progress events into stage spans: a
// stage runs from its first event to the first event of the next stage,
// and the last one ends when Detect returns. With memory set it also
// reads runtime.MemStats at every stage change, so each span carries the
// bytes allocated during it (meaningful only while nothing else runs).
// It is fed from one goroutine.
type stageClock struct {
	memory bool
	cur    string
	at     time.Time
	alloc  uint64
	dur    map[string]time.Duration
	bytes  map[string]uint64
	spent  time.Duration // inside the clock itself: the tracing overhead
}

func newStageClock(memory bool) *stageClock {
	return &stageClock{memory: memory, dur: map[string]time.Duration{}, bytes: map[string]uint64{}}
}

// observe records an event seen at time at.
func (c *stageClock) observe(p core.Progress, at time.Time) {
	st := stageOf(p.Stage)
	if st == c.cur {
		return
	}
	defer func() { c.spent += time.Since(at) }()
	alloc := c.totalAlloc()
	c.close(at, alloc)
	c.cur, c.at, c.alloc = st, at, alloc
}

// end closes the open span.
func (c *stageClock) end(at time.Time) {
	c.close(at, c.totalAlloc())
	c.spent += time.Since(at)
}

func (c *stageClock) close(at time.Time, alloc uint64) {
	if c.cur == "" {
		return
	}
	c.dur[c.cur] += at.Sub(c.at)
	c.bytes[c.cur] += alloc - c.alloc
	c.cur = ""
}

func (c *stageClock) totalAlloc() uint64 {
	if !c.memory {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// serviceATPG is the seed-generation configuration the certification
// service uses for every job, which the library runs here share.
func serviceATPG() atpg.Options {
	return atpg.Options{Seed: 7, RandomPatterns: 32, MaxFaults: 40, FaultSample: 120, Workers: runtime.NumCPU()}
}

// csrBytes is the raw footprint of a netlist's SoA/CSR arrays.
func csrBytes(a *netlist.SoA) int64 {
	return 4*int64(len(a.Orig)+len(a.Compact)+len(a.FaninPtr)+
		len(a.Fanin)+len(a.FanoutPtr)+len(a.Fanout)+len(a.Level)) + int64(len(a.Typ))
}

// coreTally sums stage spans and report counters over many certified dies
// and reports them per die: spans per traced die, counters per report.
type coreTally struct {
	clocks  int
	reports int
	memory  bool
	dur     map[string]time.Duration
	bytes   map[string]uint64
	steps   int
	pairs   int
	mods    int
	acq     core.AcquisitionStats
}

func newCoreTally() *coreTally {
	return &coreTally{dur: map[string]time.Duration{}, bytes: map[string]uint64{}}
}

// addClock folds in one die's stage spans.
func (t *coreTally) addClock(c *stageClock) {
	t.clocks++
	t.memory = t.memory || c.memory
	for k, v := range c.dur {
		t.dur[k] += v
	}
	for k, v := range c.bytes {
		t.bytes[k] += v
	}
}

// addReport folds in one die's report counters.
func (t *coreTally) addReport(rep *core.Report) {
	t.reports++
	if rep.Adaptive != nil {
		t.steps += len(rep.Adaptive.Steps)
		t.pairs += len(rep.Adaptive.Pairs)
	}
	t.mods += len(rep.Strategic.Applied)
	a := rep.Acquisition
	t.acq = core.AcquisitionStats{
		Readings: t.acq.Readings + a.Readings,
		Raw:      t.acq.Raw + a.Raw,
		Retries:  t.acq.Retries + a.Retries,
		Unstable: t.acq.Unstable + a.Unstable,
	}
}

// total is the summed span time of every stage.
func (t *coreTally) total() time.Duration {
	var s time.Duration
	for _, v := range t.dur {
		s += v
	}
	return s
}

// into writes the per-die core metrics.
func (t *coreTally) into(m map[string]float64) {
	if t.clocks > 0 {
		n := float64(t.clocks)
		for _, st := range coreStages {
			m["core."+st+"_s"] = t.dur[st].Seconds() / n
		}
		if t.memory {
			m["core.adaptive_alloc_mb"] = float64(t.bytes["adaptive"]) / n / (1 << 20)
			m["core.pairs_alloc_mb"] = float64(t.bytes["pairs"]) / n / (1 << 20)
		}
	}
	if t.reports > 0 {
		n := float64(t.reports)
		m["core.adaptive_steps"] = float64(t.steps) / n
		m["core.pairs_flagged"] = float64(t.pairs) / n
		m["core.strategic_mods"] = float64(t.mods) / n
		m["core.acq_readings"] = float64(t.acq.Readings) / n
		if t.acq.Readings > 0 {
			m["core.acq_raw_per_reading"] = float64(t.acq.Raw) / float64(t.acq.Readings)
		}
		m["core.acq_retries"] = float64(t.acq.Retries) / n
		m["core.acq_unstable"] = float64(t.acq.Unstable) / n
	}
}
